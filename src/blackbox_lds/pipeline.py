"""End-to-end orchestration: derive every phase constant from the prior
bounds (k, kappa, beta) and the horizon, run identification, controller
recovery + decay, and online control on a live plant, then report per-phase
costs and (in simulation mode) regret against the best DAC in hindsight.

Worst-case constants are sufficient conditions and quickly leave double
precision range, so every derived constant but eps0 and T1 accepts an
override. The report records each constant as it ran, with its provenance:
formula, override, or the certificate phase 2 provides.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, PhaseError, ProbeScalingError
from .lds import PriorBounds, RunLog
from .nsc import GpcResult, HindsightResult, best_dac_in_hindsight, gpc_run
from .plant import BlackBoxPlant
from .stabilize import (RecoveryConstants, RecoveryResult, controller_recovery, decay,
                        decay_horizon)
from .sysid import (EstimateBundle, adv_sys_id, closed_loop_sys_id, epsilon_zero,
                    probe_horizon, probe_plan)

# Memory phase 3 may take for its (H+1) x H gather index and the (H+1) x H
# x d_x window stack it builds every round.
GPC_STACK_BUDGET = 512 * 2**20

# the constants an override may set; eps0 and T1 are derived only
_OVERRIDABLE = ("lam", "C", "kappa_prime", "gamma_prime", "eps", "nu",
                "kappa_tilde", "gamma_tilde", "kappa_star", "W", "H", "eta", "T0")
# a parent with one of these makes a formula derived-from-override (first), -certificate
_FROM_OVERRIDE = {"override", "derived-from-override"}
_FROM_CERTIFICATE = {"certified", "derived-from-certificate"}


@dataclass
class PhaseConstants:
    """All derived quantities consumed by the three phases, with provenance:
    "default" (formula), "override", "certified" (the stability pair phase 2
    certified, on run_pipeline's certified path), "derived-from-override"
    or "derived-from-certificate" (a formula fed by such a value)."""

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
        return {name: getattr(self, name) for name in
                ("k", "kappa", "beta", "d_x", "d_u", "T", "G", "T1", "eps0")
                + _OVERRIDABLE}


def derive_constants(k: int, kappa: float, beta: float, d_x: int, d_u: int,
                     T: int, overrides: Optional[dict] = None,
                     G: float = 2.0) -> PhaseConstants:
    """Evaluate the phase-constant formulas, honoring overrides.

    Each constant in _OVERRIDABLE accepts an override; eps0 and T1 are
    derived only. Overriding a constant reroutes everything downstream of
    it ("derived-from-override"). nu, kappa~ and gamma~ are
    from_existence's, and kappa*, W, H and eta follow (kappa~, gamma~), or
    the certified pair that replaces it on run_pipeline's certified path.
    Raises ProbeScalingError if the probe scalings are unrepresentable and
    no override rescues them. Any other failed check (an unknown override,
    a constant not positive and finite, eps >= 1/2, ...) raises ConfigError
    naming the constant.
    """
    return _derive(k, kappa, beta, d_x, d_u, T, overrides, G)


def _derive(k, kappa, beta, d_x, d_u, T, overrides, G, certified=None):
    """derive_constants, with certified = {"kappa_tilde": ..., "gamma_tilde":
    ...} in place of the formula and overrides of (kappa~, gamma~)."""
    overrides = dict(overrides or {})
    unknown = sorted(set(overrides) - set(_OVERRIDABLE))
    if unknown:
        raise ConfigError(unknown[0], f"unknown constant overrides: {unknown} "
                          "(eps0 and T1 are derived only)")
    certified, prov = certified or {}, {}

    def resolve(name, formula, *parents):
        """The certified value of name if there is one, else its override,
        else formula(), recording in prov which. A formula is "derived-from-
        override" if a parent came from an override (directly or not), else
        "derived-from-certificate" if one came from the certificate."""
        if name in certified:
            prov[name] = "certified"
            return certified[name]
        if name in overrides:
            value = float(overrides[name])
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(name, f"override {name} must be positive and finite")
            prov[name] = "override"
            return value
        sources = {prov[p] for p in parents}
        prov[name] = ("derived-from-override" if sources & _FROM_OVERRIDE else
                      "derived-from-certificate" if sources & _FROM_CERTIFICATE
                      else "default")
        return formula()

    lam = resolve("lam", lambda: 8.0 * beta)
    C = resolve("C", lambda: 3.0 * kappa**2 * k**2 * beta ** (6 * k))
    kappa_prime = resolve("kappa_prime", lambda: math.sqrt(C * d_x), "C")
    gamma_prime = resolve("gamma_prime", lambda: 1.0 / (2.0 * kappa_prime**2),
                          "kappa_prime")
    eps = resolve("eps", lambda: gamma_prime**2 / (1e5 * d_x**2 * kappa_prime**8),
                  "gamma_prime", "kappa_prime")
    if eps >= 0.5:
        raise ConfigError("eps", "accuracy parameter eps must be < 1/2")

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
    kappa_star = resolve(
        "kappa_star", lambda: 4.0 * kappa_tilde**2 * k**2 * beta ** (2 * k) * kappa,
        "kappa_tilde")
    W = resolve("W", lambda: 2.0 * kappa_star / gamma_tilde,
                "kappa_star", "gamma_tilde")
    H = int(resolve("H", lambda: max(
        1, math.ceil(math.log(max(kappa_star**2 * T, math.e)) / gamma_tilde)),
        "kappa_star", "gamma_tilde"))
    eta = resolve("eta", lambda: 1.0 / (G * W * math.sqrt(T)), "W")
    T1 = probe_horizon(k, d_u) + 1
    T0 = int(resolve("T0", lambda: math.ceil(T ** (2.0 / 3.0))))
    consts = PhaseConstants(
        k=k, kappa=float(kappa), beta=float(beta), d_x=d_x, d_u=d_u, T=T, G=G,
        lam=lam, C=C, kappa_prime=kappa_prime, gamma_prime=gamma_prime,
        eps=eps, eps0=eps0, nu=nu, kappa_tilde=kappa_tilde,
        gamma_tilde=gamma_tilde, kappa_star=kappa_star, W=W, T1=T1, H=H,
        eta=eta, T0=T0, provenance=prov)
    for name in _OVERRIDABLE + ("eps0",):
        if getattr(consts, name) <= 0 or not math.isfinite(getattr(consts, name)):
            raise ConfigError(name,
                              f"derived constant {name} must be positive and finite")
    return consts


@contextmanager
def _phase(name: str):
    """Raise any failure inside as PhaseError(name), caused by it."""
    try:
        yield
    except Exception as exc:
        raise PhaseError(name, str(exc)) from exc


@dataclass
class PipelineReport:
    constants: PhaseConstants  # every constant as the phases ran it
    prior: PriorBounds
    estimates: EstimateBundle
    gpc_model: tuple  # the (A_hat, B_hat) phase 3 ran on
    recovery: RecoveryResult
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

    @property
    def stability_used(self) -> dict:
        """The (kappa~, gamma~) decay and phase 3 ran with, and its source."""
        c = self.constants
        certified = c.provenance["kappa_tilde"] == "certified"
        return {"kappa": c.kappa_tilde, "gamma": c.gamma_tilde,
                "source": "certified" if certified else "worst-case"}


def run_pipeline(plant: BlackBoxPlant, prior: PriorBounds, T: int,
                 overrides: Optional[dict] = None,
                 use_certified_stability: bool = False,
                 reidentify: bool = False,
                 comparator_iters: int = 200,
                 seed: Optional[int] = None) -> PipelineReport:
    """Run all three phases on the live plant.

    Phases observe only states and costs, and each runs on the constant
    derive_constants resolved: the phase-2 SDP on nu, decay and phase 3 on
    the stability pair (kappa~, gamma~). With use_certified_stability, that
    pair is instead the strong-stability certificate the SDP witness
    actually provides on the estimates (degraded by the 2 eps kappa^2
    transfer margin for the true system). It enters derive_constants'
    resolution in place of (kappa~, gamma~), superseding their overrides,
    and report.constants records it as "certified" and kappa*, W, H and
    eta as "derived-from-certificate" unless an override reaches them.

    The comparator (hence regret) is computed only in simulation mode, by
    replaying the recorded disturbances through the true system. The decay
    length T2 is known once K is: before the first decay round, a horizon
    with T1 - 1 + T2 >= T, a DAC horizon H longer than the rounds left for
    phase 3, or one whose window stacks would exceed GPC_STACK_BUDGET
    raises PhaseError("gpc"); the worst-case constants give such an H
    (about 19600 on a scalar plant at T = 10000, 20840 at T = 40000).
    With reidentify, phase 3 first spends min(T0, T3 // 2) rounds (checked
    with H first) on sysid.closed_loop_sys_id and runs GPC on its (A_hat,
    B_hat); a failure there raises PhaseError("reidentify").
    """
    G = plant.cost_scale
    cst = derive_constants(prior.k, prior.kappa, prior.beta, plant.d_x,
                           plant.d_u, T, overrides=overrides, G=G)
    if T <= cst.T1:
        raise PhaseError("sysid", f"horizon T={T} must exceed T1={cst.T1}")
    x1 = plant.state

    # Phase 1: identification (rounds 1 .. T1-1 pay probing costs).
    with _phase("sysid"):
        bundle = adv_sys_id(plant, cst.eps, cst.lam, prior.k, prior.kappa)
    x_after_sysid = plant.state

    # Phase 2: controller recovery (zero plant cost), then decay.
    with _phase("recover"):
        recovery = controller_recovery(bundle.A_hat, bundle.B_hat, cst.nu)
    source = "certified" if use_certified_stability else "worst-case"
    if use_certified_stability:
        kappa = recovery.witness.kappa
        gamma = recovery.witness.gamma - 2.0 * cst.eps * kappa**2
        if gamma <= 0.0:
            raise PhaseError("recover",
                             "certified stability margin nonpositive after the "
                             "estimation-error transfer; decrease eps")
        cst = _derive(prior.k, prior.kappa, prior.beta, plant.d_x, plant.d_u, T,
                      overrides, G, {"kappa_tilde": kappa, "gamma_tilde": gamma})

    # decay's length is known before its first round: check the budget now
    T2 = decay_horizon(cst.gamma_tilde, float(np.linalg.norm(x_after_sysid)))
    T3 = T - (plant.t - 1) - T2
    if T3 <= 0:
        raise PhaseError("gpc", f"decay would consume the horizon: T1-1 + T2 = "
                         f"{T - T3} >= T = {T}")
    spent = min(cst.T0, max(T3 // 2, 1)) if reidentify else 0
    T_gpc = T3 - spent
    H = cst.H
    stack_bytes = 8 * (H + 1) * H * (plant.d_x + 1)
    if H > T_gpc or stack_bytes > GPC_STACK_BUDGET:
        why = (f"exceeds the {T_gpc} rounds left for GPC" if H > T_gpc else
               f"needs {stack_bytes / 2**20:.0f} MiB of window stacks, over the "
               f"{GPC_STACK_BUDGET // 2**20} MiB budget")
        remedy = "" if use_certified_stability else " or use certified stability"
        raise PhaseError("gpc", f"DAC horizon H={H} {why} ({source} stability "
                         f"constants); lower it with the H override{remedy}")
    with _phase("decay"):
        dec = decay(plant, recovery.K, cst.kappa_tilde, cst.gamma_tilde)

    model = bundle.A_hat, bundle.B_hat
    if reidentify:
        with _phase("reidentify"):
            model = closed_loop_sys_id(plant, recovery.K, prior.k, spent, seed)
    with _phase("gpc"):
        gpc = gpc_run(plant, recovery.K, cst.kappa_star, cst.gamma_tilde, H,
                      cst.eta, T_gpc, *model)

    log = plant.log if plant.simulation_mode else None
    phase_costs = dict(log.phase_costs) if log is not None else {}
    total = plant.total_cost

    comparator = regret_value = None
    if plant.simulation_mode:
        comparator = best_dac_in_hindsight(
            plant.true_system(), plant.disturbance_history(), plant.cost_spec(),
            recovery.K, H, cst.kappa_star, cst.gamma_tilde, x1, iters=comparator_iters)
        regret_value = total - comparator.cost

    return PipelineReport(
        constants=cst, prior=prior, estimates=bundle, gpc_model=model,
        recovery=recovery, phase_costs=phase_costs, total_cost=total, log=log,
        decay_steps=dec.steps, gpc_steps=T_gpc,
        x_after_sysid_norm=float(np.linalg.norm(x_after_sysid)),
        x_after_decay_norm=float(np.linalg.norm(dec.x_final)),
        simulation_mode=plant.simulation_mode, comparator=comparator,
        regret_value=regret_value, gpc_result=gpc, seed=seed)
