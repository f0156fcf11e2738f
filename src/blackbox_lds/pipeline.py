"""End-to-end orchestration: derive every phase constant from the prior
bounds (k, kappa, beta) and the horizon, run identification, controller
recovery + decay, and online control on a live plant, then report per-phase
costs and (in simulation mode) regret against the best DAC in hindsight.

Worst-case constants are sufficient conditions and quickly leave double
precision range, so every derived constant accepts an override; overrides
are recorded with provenance in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ComparatorUnavailableError, PhaseError, ProbeScalingError
from .lds import PriorBounds, RunLog
from .nsc import GpcResult, HindsightResult, best_dac_in_hindsight, gpc_run
from .plant import BlackBoxPlant
from .stabilize import RecoveryConstants, RecoveryResult, controller_recovery, decay
from .sysid import EstimateBundle, adv_sys_id, epsilon_zero, probe_horizon, probe_plan

# Memory phase 3 may take for its (H+1) x H gather index and the (H+1) x H
# x d_x window stack it builds every round.
GPC_STACK_BUDGET = 512 * 2**20

_DERIVABLE = ("lam", "C", "kappa_prime", "gamma_prime", "eps", "eps0", "nu",
              "kappa_tilde", "gamma_tilde", "kappa_star", "W", "H", "eta", "T0")


@dataclass
class PhaseConstants:
    """All derived quantities consumed by the three phases, with provenance
    ("default" formula, "override", or "derived-from-override")."""

    k: int
    kappa: float
    beta: float
    d_x: int
    d_u: int
    T: int
    G: float
    lam: float
    C: float
    kappa_prime: float
    gamma_prime: float
    eps: float
    eps0: float
    nu: float
    kappa_tilde: float
    gamma_tilde: float
    kappa_star: float
    W: float
    T1: int
    H: int
    eta: float
    T0: int
    provenance: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {name: getattr(self, name) for name in
               ("k", "kappa", "beta", "d_x", "d_u", "T", "G", "T1") + _DERIVABLE}
        return out


def derive_constants(k: int, kappa: float, beta: float, d_x: int, d_u: int,
                     T: int, overrides: Optional[dict] = None,
                     G: float = 2.0) -> PhaseConstants:
    """Evaluate the phase-constant formulas, honoring overrides.

    Overriding a constant reroutes everything downstream of it; provenance
    marks each value as default, override, or derived-from-override. Raises
    if the probe scalings are unrepresentable and no override rescues them.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(_DERIVABLE)
    if unknown:
        raise ValueError(f"unknown constant overrides: {sorted(unknown)}")
    prov = {}
    resolve = _resolver(overrides, prov)
    lam = resolve("lam", lambda: 8.0 * beta)
    C = resolve("C", lambda: 3.0 * kappa**2 * k**2 * beta ** (6 * k))
    kappa_prime = resolve("kappa_prime", lambda: math.sqrt(C * d_x), "C")
    gamma_prime = resolve("gamma_prime", lambda: 1.0 / (2.0 * kappa_prime**2),
                          "kappa_prime")
    eps = resolve("eps", lambda: gamma_prime**2 / (1e5 * d_x**2 * kappa_prime**8),
                  "gamma_prime", "kappa_prime")
    if eps >= 0.5:
        raise ValueError("accuracy parameter eps must be < 1/2")

    def eps0_formula():
        try:
            eps0 = epsilon_zero(eps, d_u, k, lam, d_x, kappa)
            probe_plan(k, d_u, lam, eps0)  # reject unrepresentable schedules now
            return eps0
        except ProbeScalingError as exc:
            raise ProbeScalingError(
                "worst-case constants exceed floating range; "
                f"supply eps override ({exc})")

    eps0 = resolve("eps0", eps0_formula, "eps", "lam")
    existence = RecoveryConstants.from_existence(kappa_prime, gamma_prime, eps, d_x)
    nu = resolve("nu", lambda: existence.nu, "kappa_prime", "gamma_prime", "eps")
    kappa_tilde = resolve("kappa_tilde", lambda: existence.kappa_tilde,
                          "kappa_prime", "gamma_prime")
    gamma_tilde = resolve("gamma_tilde", lambda: existence.gamma_tilde,
                          "kappa_prime", "gamma_prime")
    kappa_star, W, H, eta = _phase3_constants(resolve, k, kappa, beta,
                                              kappa_tilde, gamma_tilde, T, G)
    T1 = probe_horizon(k, d_u) + 1
    T0 = int(resolve("T0", lambda: math.ceil(T ** (2.0 / 3.0))))
    consts = PhaseConstants(
        k=k, kappa=float(kappa), beta=float(beta), d_x=d_x, d_u=d_u, T=T, G=G,
        lam=lam, C=C, kappa_prime=kappa_prime, gamma_prime=gamma_prime,
        eps=eps, eps0=eps0, nu=nu, kappa_tilde=kappa_tilde,
        gamma_tilde=gamma_tilde, kappa_star=kappa_star, W=W, T1=T1, H=H,
        eta=eta, T0=T0, provenance=prov)
    for name in _DERIVABLE:
        if getattr(consts, name) <= 0 or not math.isfinite(getattr(consts, name)):
            raise ValueError(f"derived constant {name} must be positive and finite")
    return consts


def _resolver(overrides: dict, prov: dict):
    """resolve(name, formula, *parents): the override for name if there is
    one, else formula(). Records in prov whether each value is "default",
    "override", or "derived-from-override" (a parent was overridden or
    derived from an override)."""
    tainted = set()

    def resolve(name, formula, *parents):
        if name in overrides:
            prov[name] = "override"
            tainted.add(name)
            return float(overrides[name])
        value = formula()
        if any(p in tainted for p in parents):
            prov[name] = "derived-from-override"
            tainted.add(name)
        else:
            prov[name] = "default"
        return value

    return resolve


def _phase3_constants(resolve, k, kappa, beta, kappa_s, gamma_s, T, G):
    """kappa*, W, H and eta of phase 3 for the stability pair (kappa_s,
    gamma_s) in force, each through resolve (see _resolver)."""
    kappa_star = resolve(
        "kappa_star", lambda: 4.0 * kappa_s**2 * k**2 * beta ** (2 * k) * kappa,
        "kappa_tilde")
    W = resolve("W", lambda: 2.0 * kappa_star / gamma_s,
                "kappa_star", "gamma_tilde")
    H = resolve("H", lambda: max(
        1, math.ceil(math.log(max(kappa_star**2 * T, math.e)) / gamma_s)),
        "kappa_star", "gamma_tilde")
    H = int(H)
    eta = resolve("eta", lambda: 1.0 / (G * W * math.sqrt(T)), "W")
    return kappa_star, W, H, eta


@dataclass
class PipelineReport:
    constants: PhaseConstants
    prior: PriorBounds
    estimates: EstimateBundle
    recovery: RecoveryResult
    stability_used: dict  # kappa/gamma actually used for decay + phase 3
    phase_costs: dict
    total_cost: float
    log: RunLog
    decay_steps: int
    gpc_steps: int
    x_after_sysid_norm: float
    x_after_decay_norm: float
    simulation_mode: bool
    comparator: Optional[HindsightResult] = None
    regret_value: Optional[float] = None
    gpc_result: Optional[GpcResult] = None
    seed: Optional[int] = None


def regret(report: PipelineReport) -> float:
    """Total pipeline cost minus the best-DAC-in-hindsight cost."""
    if report.comparator is None:
        raise ComparatorUnavailableError(
            "regret unavailable outside simulation mode")
    return report.total_cost - report.comparator.cost


def run_pipeline(plant: BlackBoxPlant, prior: PriorBounds, T: int,
                 constants: Optional[PhaseConstants] = None,
                 overrides: Optional[dict] = None,
                 use_certified_stability: bool = False,
                 reidentify: bool = False,
                 comparator_iters: int = 200,
                 seed: Optional[int] = None) -> PipelineReport:
    """Run all three phases on the live plant.

    Phases observe only states and costs. With use_certified_stability, the
    decay length and phase-3 constants are rebuilt from the strong-stability
    certificate the SDP witness actually provides on the estimates (degraded
    by the 2 eps kappa^2 transfer margin for the true system) instead of the
    worst-case formulas; provenance records the substitution. Overrides of
    kappa_star, W, H and eta hold on either path, and the constants derived
    from an overridden one follow it; the phase-2 SDP uses the resolved nu.

    The comparator (hence regret) is computed only in simulation mode, by
    replaying the recorded disturbances through the true system. A DAC
    horizon H longer than the rounds left for phase 3, or one whose window
    stacks would exceed GPC_STACK_BUDGET, raises PhaseError("gpc") before
    phase 3 allocates anything; the worst-case constants give such an H
    (about 19600 on a scalar plant at T = 10000, 20840 at T = 40000).
    """
    G = plant.cost_scale
    if constants is None:
        constants = derive_constants(prior.k, prior.kappa, prior.beta,
                                     plant.d_x, plant.d_u, T,
                                     overrides=overrides, G=G)
    cst = constants
    if T <= cst.T1:
        raise PhaseError("sysid", f"horizon T={T} must exceed T1={cst.T1}")
    x1 = plant.state

    # Phase 1: identification (rounds 1 .. T1-1 pay probing costs).
    try:
        bundle = adv_sys_id(plant, cst.eps, cst.lam, prior.k, prior.kappa)
    except Exception as exc:
        raise PhaseError("sysid", str(exc)) from exc
    x_after_sysid = plant.state

    # Phase 2: controller recovery (zero plant cost), then decay.
    try:
        recovery = controller_recovery(bundle.A_hat, bundle.B_hat, cst.eps,
                                       cst.kappa_prime, cst.gamma_prime,
                                       nu=cst.nu)
    except Exception as exc:
        raise PhaseError("recover", str(exc)) from exc
    kappa_use, gamma_use = cst.kappa_tilde, cst.gamma_tilde
    source = "worst-case"
    if use_certified_stability:
        kappa_cert = recovery.kappa_est
        gamma_cert = recovery.gamma_est - 2.0 * cst.eps * recovery.kappa_est**2
        if gamma_cert <= 0.0:
            raise PhaseError("recover",
                             "certified stability margin nonpositive after the "
                             "estimation-error transfer; decrease eps")
        kappa_use, gamma_use = kappa_cert, gamma_cert
        source = "certified"
    try:
        dec = decay(plant, recovery.K, kappa_use, gamma_use)
    except Exception as exc:
        raise PhaseError("decay", str(exc)) from exc

    rounds_used = plant.t - 1
    T3 = T - rounds_used
    if T3 <= 0:
        raise PhaseError("gpc", f"decay consumed the horizon: T1-1 + T2 = "
                         f"{rounds_used} >= T = {T}")

    # Phase 3 constants follow the stability parameters actually in force.
    kappa_star, W, H, eta = cst.kappa_star, cst.W, cst.H, cst.eta
    if use_certified_stability:
        kappa_star, W, H, eta = _phase3_constants(
            _resolver(dict(overrides or {}), {}), prior.k, prior.kappa,
            prior.beta, kappa_use, gamma_use, T, G)
    stability_used = {"kappa": kappa_use, "gamma": gamma_use, "source": source,
                      "kappa_star": kappa_star, "W": W, "H": H, "eta": eta}

    A_p3, B_p3 = bundle.A_hat, bundle.B_hat
    T_gpc = T3
    if reidentify:
        A_p3, B_p3, spent = _reidentify(plant, recovery.K, cst.T0, T3, seed)
        T_gpc = T3 - spent
    stack_bytes = 8 * (H + 1) * H * (plant.d_x + 1)
    if H > T_gpc or stack_bytes > GPC_STACK_BUDGET:
        why = (f"exceeds the {T_gpc} rounds left for GPC" if H > T_gpc else
               f"needs {stack_bytes / 2**20:.0f} MiB of window stacks, over the "
               f"{GPC_STACK_BUDGET // 2**20} MiB budget")
        raise PhaseError("gpc", f"DAC horizon H={H} {why} ({source} stability "
                         "constants); lower it with the H override or use "
                         "certified stability")
    try:
        gpc = gpc_run(plant, recovery.K, kappa_star, gamma_use, H, eta,
                      T_gpc, A_p3, B_p3)
    except Exception as exc:
        raise PhaseError("gpc", str(exc)) from exc

    log = plant.log if plant.simulation_mode else None
    phase_costs = dict(log.phase_costs) if log is not None else {}
    total = plant.total_cost

    comparator = None
    regret_value = None
    if plant.simulation_mode:
        sys_true = plant.true_system()
        w_seq = plant.disturbance_history()
        comparator = best_dac_in_hindsight(
            sys_true, w_seq, plant.cost_spec(), recovery.K, H, kappa_star,
            gamma_use, x1, iters=comparator_iters)
        regret_value = total - comparator.cost

    return PipelineReport(
        constants=cst, prior=prior, estimates=bundle, recovery=recovery,
        stability_used=stability_used, phase_costs=phase_costs,
        total_cost=total, log=log, decay_steps=dec.steps, gpc_steps=T_gpc,
        x_after_sysid_norm=float(np.linalg.norm(x_after_sysid)),
        x_after_decay_norm=float(np.linalg.norm(dec.x_final)),
        simulation_mode=plant.simulation_mode, comparator=comparator,
        regret_value=regret_value, gpc_result=gpc, seed=seed)


def _reidentify(plant: BlackBoxPlant, K, T0: int, T3: int, seed):
    """Optional phase-3 re-identification: stabilized unit-sign probing for
    T0 rounds, then joint least squares on the residual transitions."""
    budget = min(T0, max(T3 // 2, 1))
    rng = np.random.default_rng(seed if seed is not None else 0)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    xs, us, xn = [], [], []
    x = plant.state
    for _ in range(budget):
        probe = rng.choice([-1.0, 1.0], size=plant.d_u)
        u = K @ x + probe
        outcome = plant.apply(u, phase="reidentify")
        xs.append(x)
        us.append(u)
        x = outcome.x_next
        xn.append(x)
    Z = np.hstack([np.array(xs), np.array(us)])  # (budget, d_x + d_u)
    Y = np.array(xn)
    theta, *_ = np.linalg.lstsq(Z, Y, rcond=None)
    AB = theta.T
    return AB[:, : plant.d_x], AB[:, plant.d_x:], budget
