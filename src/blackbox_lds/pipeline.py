"""End-to-end orchestration: resolve the phase constants from the prior
bounds (k, kappa, beta) and the horizon, run identification, controller
recovery + decay, and online control on a live plant, then report per-phase
costs and (in simulation mode) regret against the best DAC in hindsight.

Worst-case constants are sufficient conditions and quickly leave double
precision range, so every derived constant but eps0 and T1 accepts an
override, and a run checks only the constants its phases read. The report
records each constant as it ran, with its provenance: formula, override,
or the certificate phase 2 provides.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
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


class PhaseConstants:
    """The phase constants of one run, each resolved on its first read: the
    certified value if certify() gave one, else the override, else its
    formula. Overrides are checked up front, each value as it resolves: one
    not positive and finite (an overflowing formula too) raises ConfigError
    naming it, as eps0's formula does for an eps >= 1/2. provenance gives
    each resolved one's source: "default", "override", "certified", or
    "derived-from-override" / "derived-from-certificate" (fed by such a
    value; override first)."""

    def __init__(self, k: int, kappa: float, beta: float, d_x: int, d_u: int,
                 T: Optional[int] = None, overrides: Optional[dict] = None,
                 G: float = 2.0):
        unknown = sorted(set(overrides or {}) - set(_OVERRIDABLE))
        if unknown:
            raise ConfigError(unknown[0], f"unknown constant overrides: {unknown} "
                              "(eps0 and T1 are derived only)")
        self._given = {name: (_checked(name, float(value)), "override")
                       for name, value in (overrides or {}).items()}
        self.k, self.kappa, self.beta = k, float(kappa), float(beta)
        self.d_x, self.d_u, self.T, self.G = d_x, d_u, T, G
        self.T1 = probe_horizon(k, d_u) + 1
        self.provenance = {}

        def eps0():
            try:
                eps0 = epsilon_zero(self.eps, d_u, k, self.lam, d_x, kappa)
                probe_plan(k, d_u, self.lam, eps0)  # reject unrepresentable schedules
                return eps0
            except ProbeScalingError as exc:
                raise ProbeScalingError("worst-case constants exceed floating "
                                        f"range; supply eps override ({exc})")

        def existence():
            return RecoveryConstants.from_existence(self.kappa_prime,
                                                    self.gamma_prime, self.eps, d_x)

        # name: (parents, formula); a formula reads its inputs as attributes
        self._formulas = {
            "lam": ((), lambda: 8.0 * beta),
            "C": ((), lambda: 3.0 * kappa**2 * k**2 * beta ** (6 * k)),
            "kappa_prime": (("C",), lambda: math.sqrt(self.C * d_x)),
            "gamma_prime": (("kappa_prime",),
                            lambda: 1.0 / (2.0 * self.kappa_prime**2)),
            "eps": (("gamma_prime", "kappa_prime"), lambda: (
                self.gamma_prime**2 / (1e5 * d_x**2 * self.kappa_prime**8))),
            "eps0": (("eps", "lam"), eps0),
            "nu": (("kappa_prime", "gamma_prime", "eps"), lambda: existence().nu),
            "kappa_tilde": (("kappa_prime", "gamma_prime"),
                            lambda: existence().kappa_tilde),
            "gamma_tilde": (("kappa_prime", "gamma_prime"),
                            lambda: existence().gamma_tilde),
            "kappa_star": (("kappa_tilde",), lambda: (
                4.0 * self.kappa_tilde**2 * k**2 * beta ** (2 * k) * kappa)),
            "W": (("kappa_star", "gamma_tilde"),
                  lambda: 2.0 * self.kappa_star / self.gamma_tilde),
            "H": (("kappa_star", "gamma_tilde"), lambda: max(1, math.ceil(
                math.log(max(self.kappa_star**2 * T, math.e)) / self.gamma_tilde))),
            "eta": (("W",), lambda: 1.0 / (G * self.W * math.sqrt(T))),
            "T0": ((), lambda: math.ceil(T ** (2.0 / 3.0))),
        }

    def __getattr__(self, name):
        """Resolve constant name on its first read; later reads find it set."""
        if name not in self.__dict__.get("_formulas", ()):
            raise AttributeError(name)
        parents, formula = self._formulas[name]
        if name in self._given:
            value, source = self._given[name]
        else:
            for parent in parents:  # resolved first, for its provenance
                getattr(self, parent)
            sources = {self.provenance[p] for p in parents}
            source = ("derived-from-override" if sources & _FROM_OVERRIDE else
                      "derived-from-certificate" if sources & _FROM_CERTIFICATE
                      else "default")
            try:
                value = formula()
            except OverflowError:  # float ** raises where * would give inf
                value = math.inf
        value = _checked(name, value)
        setattr(self, name, int(value) if name in ("H", "T0") else value)
        self.provenance[name] = source
        return getattr(self, name)

    def certify(self, kappa: float, gamma: float) -> None:
        """Give phase 2's certified stability pair as (kappa~, gamma~),
        superseding their formula and overrides, before either is read."""
        self._given.update(kappa_tilde=(kappa, "certified"),
                           gamma_tilde=(gamma, "certified"))

    def resolve(self, *names) -> "PhaseConstants":
        """Read each of names, every constant of the table if none."""
        for name in names or self._formulas:
            getattr(self, name)
        return self

    def as_dict(self) -> dict:
        """Every constant, resolving for the record those no phase read; one
        of those that fails its check reads None."""
        record = {}
        for name in ("k", "kappa", "beta", "d_x", "d_u", "T", "G", "T1",
                     *self._formulas):
            try:
                record[name] = getattr(self, name)
            except ConfigError:
                record[name] = None
        return record


def _checked(name, value):
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(name, f"must be positive and finite, got {value}")
    return value


def derive_constants(k: int, kappa: float, beta: float, d_x: int, d_u: int,
                     T: int, overrides: Optional[dict] = None,
                     G: float = 2.0) -> PhaseConstants:
    """Every PhaseConstants constant, resolved and checked now, as
    run_pipeline's worst-case path does before round 1. A probe schedule no
    override makes representable raises ProbeScalingError."""
    return PhaseConstants(k, kappa, beta, d_x, d_u, T, overrides, G).resolve()


def identify(plant: BlackBoxPlant, prior: PriorBounds,
             overrides: Optional[dict] = None) -> tuple:
    """Phase 1 alone, resolving only the constants it reads (eps, lam and
    eps0; no horizon): (adv_sys_id's EstimateBundle, the PhaseConstants)."""
    cst = PhaseConstants(prior.k, prior.kappa, prior.beta, plant.d_x, plant.d_u,
                         overrides=overrides).resolve("eps", "lam", "eps0")
    return adv_sys_id(plant, cst.eps, cst.lam, prior.k, prior.kappa), cst


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
    PhaseConstants resolved: the phase-2 SDP on nu, decay and phase 3 on
    the stability pair (kappa~, gamma~). The worst-case path resolves every
    constant before round 1 (a failed check raises ConfigError). With
    use_certified_stability, only eps, lam, eps0 and nu are; the pair is
    instead the strong-stability certificate the SDP witness provides on
    the estimates (degraded by the 2 eps kappa^2 transfer margin for the
    true system), superseding the formula and overrides of (kappa~,
    gamma~), and kappa*, W, H and eta follow it before the first decay
    round (a failed check raises PhaseError("gpc")). report.constants
    records it as "certified" and kappa*, W, H and eta as
    "derived-from-certificate" unless an override reaches them.

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
    cst = PhaseConstants(prior.k, prior.kappa, prior.beta, plant.d_x, plant.d_u,
                         T, overrides, plant.cost_scale)
    if use_certified_stability:
        cst.resolve("eps", "lam", "eps0", "nu")  # what phases 1 and 2 read
    else:
        cst.resolve()  # the worst-case path: every constant, before round 1
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
        with _phase("gpc"):
            cst.certify(kappa, gamma)
            cst.resolve("kappa_star", "W", "H", "eta")

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
