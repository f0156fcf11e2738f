"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, runs one *pass* of
operations through the package's public entry points (``run_pipeline`` on a
benchmark-owned plant, or ``cli.dispatch``), and checks every output itself.
A pass returns one ``Op`` per operation; ``run.py`` turns passes into metrics.
See README.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import blackbox_lds
from blackbox_lds import cli
from blackbox_lds import lowerbound as lb
from blackbox_lds.errors import SdpInfeasibleError

from spans import Tracer

clock = time.perf_counter


@dataclass
class Op:
    """One attempted operation: its duration, outcome and output checks.

    round_gaps are its decision-round latencies, in order; segments split its
    duration at the start of each round. Both are kept per position so that
    run.py can take each one's median over passes. offline is the time from
    its last round to its return.
    """

    label: str
    duration: float
    error: Optional[str] = None
    checks: list = field(default_factory=list)  # (name, ok, detail)
    round_gaps: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    offline: float = 0.0
    digest: str = ""
    bytes_written: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(ok for _, ok, _ in self.checks)


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _timeline(start, end, rounds) -> dict:
    """round_gaps, segments and offline of an operation from (start, end) of
    each of its decision rounds."""
    if not rounds:
        return {"segments": [end - start], "offline": end - start}
    starts = [s for s, _ in rounds]
    return {"round_gaps": list(np.diff(starts)),
            "segments": [starts[0] - start, *np.diff(starts), end - starts[-1]],
            "offline": end - rounds[-1][1]}


def _digest(*values) -> str:
    text = " ".join(format(float(v), ".17g")
                    for v in np.concatenate([np.ravel(v) for v in values]))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dispatch(subcommand, cfg, out_dir: Path, tracer: Optional[Tracer]):
    """Run one CLI experiment into out_dir and remove what it wrote.

    Returns (start, end, exception or None, parsed summary.json, bytes written).
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    start = clock()
    try:
        if tracer is None:
            cli.dispatch(subcommand, cfg, str(out_dir))
        else:
            with tracer.span("cli.dispatch"):
                cli.dispatch(subcommand, cfg, str(out_dir))
        error = None
    except Exception as exc:  # counted as a failed operation, never fatal
        error = exc
    end = clock()
    summary = None
    written = 0
    if out_dir.exists():
        written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        summary_path = out_dir / "summary.json"
        if error is None and summary_path.exists():
            summary = json.loads(summary_path.read_text(encoding="utf-8"))
        shutil.rmtree(out_dir)
    return start, end, error, summary, written


# -- pipeline-scalar ----------------------------------------------------------

class BenchPlant(blackbox_lds.BlackBoxPlant):
    """The environment: a plant that timestamps every committed round."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds = []  # (phase, start, end)
        self.tracer: Optional[Tracer] = None

    def apply(self, u, phase):
        start = clock()
        try:
            return super().apply(u, phase)
        finally:
            end = clock()
            self.rounds.append((phase, start, end))
            if self.tracer is not None:
                self.tracer.add_span("plant.apply", start, end)


class PipelineScalar:
    """run_pipeline on the criterion-08 scalar instance; the seed sets the
    phase of the sinusoidal disturbance and the plant seed."""

    name = "pipeline-scalar"
    A, B = 0.5, 1.0
    T = 2000
    COMPARATOR_ITERS = 60
    OVERRIDES = {"eps": 1e-3}

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.phase = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))
        self.system = blackbox_lds.LinearSystem([[self.A]], [[self.B]])
        self.prior = blackbox_lds.PriorBounds(1, 1.0, 1.0)
        self.cost = blackbox_lds.CostFunction.quadratic()

    def params(self) -> dict:
        return {"A": self.A, "B": self.B, "omega": 0.2, "phase": self.phase,
                "T": self.T, "overrides": self.OVERRIDES, "prior": [1, 1.0, 1.0],
                "use_certified_stability": True,
                "comparator_iters": self.COMPARATOR_ITERS, "plant_seed": self.seed}

    def _plant(self) -> BenchPlant:
        dist = blackbox_lds.SinusoidalDisturbance(1, omega=0.2, phases=[self.phase])
        return BenchPlant(self.system, dist, self.cost, [0.0], seed=self.seed)

    def _run(self, plant, T):
        return blackbox_lds.run_pipeline(
            plant, self.prior, T, overrides=self.OVERRIDES,
            use_certified_stability=True, comparator_iters=self.COMPARATOR_ITERS,
            seed=self.seed)

    def warmup(self):
        self._run(self._plant(), 300)

    def run_pass(self, tracer: Optional[Tracer]) -> list:
        plant = self._plant()
        plant.tracer = tracer
        label = f"run_pipeline(T={self.T})"
        start = clock()
        try:
            if tracer is None:
                report = self._run(plant, self.T)
            else:
                with tracer.span("pipeline.run_pipeline"):
                    report = self._run(plant, self.T)
        except Exception as exc:
            return [Op(label, clock() - start, error=_error_text(exc))]
        end = clock()
        gpc = [(s, e) for phase, s, e in plant.rounds if phase == "gpc"]
        op = Op(label, end - start, **_timeline(start, end, gpc))
        op.checks = self._checks(report)
        K = np.asarray(report.recovery.K, dtype=float)
        op.digest = _digest(report.total_cost, report.regret_value, K)
        op.extras = {"total_cost": report.total_cost, "regret": report.regret_value,
                     "K": K.tolist(), "comparator_iters": report.comparator.iterations}
        return [op]

    def _checks(self, report) -> list:
        eps = report.constants.eps
        err_A = float(np.linalg.norm(report.estimates.A_hat - self.system.A, 2))
        err_B = float(np.linalg.norm(report.estimates.B_hat - self.system.B, 2))
        kappa = report.stability_used["kappa"]
        gamma = report.stability_used["gamma"]
        decay_bound = 2.0 * kappa / gamma
        viol = report.gpc_result.max_constraint_violation
        regret = report.regret_value
        return [
            ("||A_hat - A|| <= eps", err_A <= eps, f"{err_A:.3g} vs {eps:.3g}"),
            ("||B_hat - B|| <= eps", err_B <= eps, f"{err_B:.3g} vs {eps:.3g}"),
            ("x_after_decay_norm <= 2 kappa/gamma",
             report.x_after_decay_norm <= decay_bound,
             f"{report.x_after_decay_norm:.3g} vs {decay_bound:.3g}"),
            ("GPC max_constraint_violation <= 1e-9", viol <= 1e-9, f"{viol:.3g}"),
            ("regret finite and >= -1e-6",
             regret is not None and math.isfinite(regret) and regret >= -1e-6,
             f"{regret!r}"),
        ]


# -- recover-mimo -------------------------------------------------------------

def _random_pair(rng, radius=1.1):
    d_x = int(rng.integers(8, 17))
    d_u = int(rng.integers(2, 5))
    A = rng.normal(size=(d_x, d_x))
    A *= radius / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(d_x, d_u))
    B /= np.linalg.norm(B, 2)
    return A, B


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


class RecoverMimo:
    """``blackbox-lds recover`` on a fixed batch of random (A_hat, B_hat).

    The batch is draws BASE_DRAWS of the generator seeded with BASE_SEED
    (d_x 8-16, d_u 2-4, spectral radius 1.1). The workload seed applies a
    random orthogonal change of state and input basis to each pair. Dykstra's
    projections are equivariant under it, so the inputs change with the seed
    while the iteration counts, and hence the work, do not.
    """

    name = "recover-mimo"
    BASE_SEED = 7
    BASE_DRAWS = (14, 1, 9, 3, 7, 4)  # 1, 1, 599, 725, 1192, 4534 iterations
    EPS = 1e-6
    KAPPA_PRIME = 3.0
    GAMMA_PRIME = 1.0 / (2.0 * KAPPA_PRIME**2)

    def __init__(self, seed: int, out_root: Path):
        self.out_dir = out_root / "recover"
        base_rng = np.random.default_rng(self.BASE_SEED)
        draws = [_random_pair(base_rng) for _ in range(max(self.BASE_DRAWS) + 1)]
        rng = np.random.default_rng(seed)
        self.cases = []  # (label, A, B, expect_infeasible)
        for i in self.BASE_DRAWS:
            A, B = draws[i]
            Q = _orthogonal(rng, A.shape[0])
            R = _orthogonal(rng, B.shape[1])
            self.cases.append((f"draw{i} d_x={A.shape[0]} d_u={B.shape[1]}",
                               Q @ A @ Q.T, Q @ B @ R.T, False))
        self.cases.append(("infeasible A=2 B=0", np.array([[2.0]]),
                           np.array([[0.0]]), True))
        self.configs = [self._config(A, B) for _, A, B, _ in self.cases]
        self.seed = seed

    def _config(self, A, B):
        return {"experiment": "recover", "A_hat": A.tolist(), "B_hat": B.tolist(),
                "eps": self.EPS, "kappa_prime": self.KAPPA_PRIME,
                "gamma_prime": self.GAMMA_PRIME}

    def params(self) -> dict:
        return {"base_seed": self.BASE_SEED, "base_draws": list(self.BASE_DRAWS),
                "cases": [c[0] for c in self.cases], "eps": self.EPS,
                "kappa_prime": self.KAPPA_PRIME, "gamma_prime": self.GAMMA_PRIME,
                "basis_seed": self.seed}

    def warmup(self):
        _dispatch("recover", self.configs[0], self.out_dir, None)

    def run_pass(self, tracer: Optional[Tracer]) -> list:
        ops = []
        for (label, A, B, infeasible), cfg in zip(self.cases, self.configs):
            start, end, error, summary, written = _dispatch(
                "recover", cfg, self.out_dir, tracer)
            duration = end - start
            # no control loop: the request is the decision round
            op = Op(label, duration, round_gaps=[duration], segments=[duration],
                    offline=duration, bytes_written=written)
            if infeasible:
                rejected = isinstance(error, SdpInfeasibleError)
                op.checks = [("infeasible case raises SdpInfeasibleError", rejected,
                              "raised" if rejected else
                              (_error_text(error) if error else "accepted"))]
            elif error is not None:
                op.error = _error_text(error)
            else:
                op.checks, K = self._checks(A, B, summary)
                op.digest = _digest(K)
            ops.append(op)
        return ops

    @staticmethod
    def _checks(A, B, summary):
        K = np.asarray(summary["K"], dtype=float).reshape(B.shape[1], A.shape[0])
        norm_L = summary["witness_norm_L"]
        bound = 1.0 - 1.0 / (2.0 * summary["nu"])
        rho = float(max(abs(np.linalg.eigvals(A + B @ K))))
        return [
            ("witness_norm_L <= 1 - 1/(2 nu)", norm_L <= bound,
             f"{norm_L:.9g} vs {bound:.9g}"),
            ("closed-loop spectral radius < 1", rho < 1.0, f"{rho:.6g}"),
        ], K


# -- lowerbound-attack --------------------------------------------------------

class LowerboundAttack:
    """lowerbound-rand at d_x 200 and 800 and lowerbound-det at d_x 200,
    each through cli.dispatch against every built-in controller."""

    name = "lowerbound-attack"
    RAND_SIZES = (200, 800)
    DET_SIZES = (200,)
    GAMMA = 40.0

    def __init__(self, seed: int, out_root: Path):
        self.out_dir = out_root / "lowerbound"
        rng = np.random.default_rng(seed)
        self.controllers = sorted(lb.BUILTIN_CONTROLLERS)
        self.configs = []
        for name in self.controllers:
            for d_x in self.RAND_SIZES:
                self.configs.append(("lowerbound-rand", {
                    "experiment": "lowerbound-rand", "d_x": d_x, "controller": name,
                    "gamma": self.GAMMA, "seed": int(rng.integers(0, 2**31))}))
            for d_x in self.DET_SIZES:
                self.configs.append(("lowerbound-det", {
                    "experiment": "lowerbound-det", "d_x": d_x, "controller": name}))
        self.seed = seed

    def params(self) -> dict:
        return {"controllers": self.controllers, "rand_d_x": list(self.RAND_SIZES),
                "det_d_x": list(self.DET_SIZES), "gamma": self.GAMMA,
                "trial_seeds": [c.get("seed") for _, c in self.configs]}

    def warmup(self):
        for sub, d_x in (("lowerbound-rand", 200), ("lowerbound-det", 20)):
            _dispatch(sub, {"experiment": sub, "d_x": d_x, "seed": 0},
                      self.out_dir, None)

    def run_pass(self, tracer: Optional[Tracer]) -> list:
        instances = []  # per controller instance: [(start, end), ...]
        registry = lb.BUILTIN_CONTROLLERS
        saved = dict(registry)
        for name, factory in saved.items():
            registry[name] = _timed_factory(factory, instances, tracer)
        ops = []
        try:
            for sub, cfg in self.configs:
                instances.clear()
                start, end, error, summary, written = _dispatch(
                    sub, cfg, self.out_dir, tracer)
                label = f"{sub} d_x={cfg['d_x']} {cfg['controller']}"
                # rounds are the calls of the attacked controller (the first
                # instance; the deterministic adversary builds a second one to
                # check determinism)
                calls = instances[0] if instances else []
                op = Op(label, end - start, bytes_written=written,
                        **_timeline(start, end, calls))
                if error is not None:
                    op.error = _error_text(error)
                else:
                    op.checks = self._checks(sub, summary)
                    op.digest = _digest(summary["total_cost"])
                    if sub == "lowerbound-rand":
                        h = np.asarray(summary["h_sq"], dtype=float)
                        op.extras = {"doubled": int(np.sum(h[1:] >= 2.0 * h[:-1])),
                                     "judged": max(len(h) - 1, 0)}
                ops.append(op)
        finally:
            registry.update(saved)
        return ops

    @staticmethod
    def _checks(sub, s) -> list:
        if sub == "lowerbound-rand":
            threshold = 2.0 ** (s["steps"] - 1)
            return [("||x_T||^2 >= 2^(T-1)", s["final_state_norm"] ** 2 >= threshold,
                     f"{s['final_state_norm'] ** 2:.3g} vs {threshold:.3g}")]
        growth = 2.0 ** (s["d_x"] - 1)
        return [
            ("||x_dx|| >= 2^(d_x-1)", s["final_state_norm"] >= growth,
             f"{s['final_state_norm']:.3g} vs {growth:.3g}"),
            ("system norm <= 2", s["system_spectral_norm"] <= 2.0 + 1e-12,
             f"{s['system_spectral_norm']:.17g}"),
        ]


def _timed_factory(factory, instances, tracer):
    """Wrap a controller factory so every controller call is timestamped."""

    def make():
        controller = factory()
        calls = []
        instances.append(calls)

        def act(history):
            start = clock()
            try:
                return controller(history)
            finally:
                end = clock()
                calls.append((start, end))
                if tracer is not None:
                    tracer.add_span("lowerbound.controller", start, end)

        return act

    return make


# -- shared -------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (PipelineScalar, RecoverMimo, LowerboundAttack)}

# Public functions the traced run wraps, as (dotted path, span name, kind).
# Every module of the package that holds the same function object gets the
# wrapper, so calls through re-exports are traced too.
TRACE_TARGETS = (
    ("blackbox_lds.pipeline.derive_constants", "pipeline.derive_constants", "span"),
    ("blackbox_lds.sysid.adv_sys_id", "sysid.adv_sys_id", "span"),
    ("blackbox_lds.stabilize.controller_recovery", "stabilize.controller_recovery",
     "span"),
    ("blackbox_lds.stabilize.sdp_feasibility", "stabilize.sdp_feasibility", "span"),
    ("blackbox_lds.stabilize.project_psd_trace", "stabilize.project_psd_trace",
     "count"),
    ("blackbox_lds.stabilize.decay", "stabilize.decay", "span"),
    ("blackbox_lds.nsc.gpc_run", "nsc.gpc_run", "span"),
    ("blackbox_lds.nsc.dac_control", "nsc.dac_control", "span"),
    ("blackbox_lds.nsc.estimate_disturbance", "nsc.estimate_disturbance", "span"),
    ("blackbox_lds.nsc.surrogate_gradient", "nsc.surrogate_gradient", "span"),
    ("blackbox_lds.nsc.project_M", "nsc.project_M", "span"),
    ("blackbox_lds.nsc.best_dac_in_hindsight", "nsc.best_dac_in_hindsight", "span"),
    ("blackbox_lds.nsc.dac_total_cost", "nsc.dac_total_cost", "span"),
    ("blackbox_lds.lowerbound.randomized_lb_trial", "lowerbound.randomized_lb_trial",
     "span"),
    ("blackbox_lds.lowerbound.deterministic_adversary",
     "lowerbound.deterministic_adversary", "span"),
    ("blackbox_lds.lowerbound.SubspaceTracker.extend", "lowerbound.tracker_extend",
     "count"),
)
