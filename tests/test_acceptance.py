"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from blackbox_lds import (
    BlackBoxPlant,
    CostFunction,
    LinearSystem,
    PriorBounds,
    SignAdversarialDisturbance,
    SinusoidalDisturbance,
    ZeroDisturbance,
    adv_sys_id,
    controller_recovery,
    decay,
    deterministic_adversary,
    epsilon_zero,
    gpc_run,
    min_energy_controls,
    probe_plan,
    randomized_lb_trial,
    run_pipeline,
    sdp_feasibility,
    step,
)
from blackbox_lds.errors import SdpInfeasibleError
from blackbox_lds.lowerbound import BUILTIN_CONTROLLERS, zero_controller
from blackbox_lds.stabilize import AffineProjector, RecoveryConstants
from conftest import random_certified_pair, random_controllable_system
from gpc_reference import core_surrogate, surrogate_cost

QUAD = CostFunction.quadratic()


def _report(num, ok, detail=""):
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_noiseless_exact_identification():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        sys, k, kappa, beta = random_controllable_system(rng, d_x_max=4,
                                                         d_u_max=2, k_max=3)
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, np.zeros(sys.d_x))
        bundle = adv_sys_id(plant, 1e-7, 8.0 * beta, k, kappa)
        err = max(np.linalg.norm(bundle.A_hat - sys.A, 2),
                  np.linalg.norm(bundle.B_hat - sys.B, 2))
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1e-8 and elapsed < 5.0,
            f"(worst error {worst:.3g}, {elapsed:.2f}s)")


@pytest.fixture(scope="module")
def adversarial_sysid_runs():
    """50 instances x eps in {1e-2, 1e-3} with sign-adversarial noise;
    shared by criteria 2 and 3."""
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    runs = []
    for _ in range(50):
        sys, k, kappa, beta = random_controllable_system(rng, d_x_max=3,
                                                         d_u_max=2, k_max=3)
        for eps in (1e-2, 1e-3):
            lam = 8.0 * beta
            plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD,
                                  np.zeros(sys.d_x))
            bundle = adv_sys_id(plant, eps, lam, k, kappa)
            eps0 = epsilon_zero(eps, sys.d_u, k, lam, sys.d_x, kappa)
            plan = probe_plan(k, sys.d_u, lam, eps0)
            states = list(plant.log.states()) + [plant.state]
            runs.append({"sys": sys, "k": k, "eps": eps, "eps0": eps0,
                         "lam": lam, "bundle": bundle, "plan": plan,
                         "states": states})
    return runs, time.monotonic() - t0


def test_criterion_02_adversarial_identification_bound(adversarial_sysid_runs):
    runs, elapsed = adversarial_sysid_runs
    worst_ratio = 0.0
    block_ok = True
    for r in runs:
        sys, bundle, eps = r["sys"], r["bundle"], r["eps"]
        err = max(np.linalg.norm(bundle.A_hat - sys.A, 2),
                  np.linalg.norm(bundle.B_hat - sys.B, 2))
        worst_ratio = max(worst_ratio, err / eps)
        bound = 3 * sys.d_u**2 * r["k"] * r["lam"] ** (2 * r["k"]) * r["eps0"]
        power = sys.B.copy()
        for j in range(r["k"] + 1):
            if np.linalg.norm(bundle.M_hat[j] - power) > bound:
                block_ok = False
            power = sys.A @ power
    _report(2, worst_ratio <= 1.0 and block_ok and elapsed < 30.0,
            f"(worst err/eps {worst_ratio:.3g}, block bounds "
            f"{'ok' if block_ok else 'violated'}, {elapsed:.2f}s)")


def test_criterion_03_state_magnitude_invariant(adversarial_sysid_runs):
    runs, _ = adversarial_sysid_runs
    violations = 0
    for r in runs:
        plan, states = r["plan"], r["states"]
        for t in range(2, len(states) + 1):
            if np.linalg.norm(states[t - 1]) > plan.state_bound(t):
                violations += 1
    _report(3, violations == 0, f"({violations} violations across {len(runs)} runs)")


def test_criterion_04_sdp_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    worst_resid = 0.0
    worst_margin = -np.inf
    for _ in range(50):
        sys, K, cert = random_certified_pair(rng)
        nu = RecoveryConstants.from_existence(cert.kappa, cert.gamma, 0.0, sys.d_x).nu
        result = controller_recovery(sys.A, sys.B, nu)
        proj = AffineProjector(sys.A, sys.B)
        resid = max(proj.residual(result.sigma.sigma),
                    max(0.0, -np.linalg.eigvalsh(result.sigma.sigma).min()),
                    max(0.0, np.trace(result.sigma.sigma) - nu))
        worst_resid = max(worst_resid, resid)
        rho = max(abs(np.linalg.eigvals(sys.A + sys.B @ result.K)))
        worst_margin = max(worst_margin,
                           rho - (1 - 1 / (2 * nu)))
    rejected = False
    try:
        sdp_feasibility([[2.0]], [[0.0]], 5.0)
    except SdpInfeasibleError:
        rejected = True
    elapsed = time.monotonic() - t0
    _report(4, worst_resid <= 1e-9 and worst_margin <= 1e-6 and rejected
            and elapsed < 60.0,
            f"(worst residual {worst_resid:.3g}, worst spectral margin "
            f"{worst_margin:.3g}, infeasible rejected {rejected}, {elapsed:.1f}s)")


def test_criterion_05_stability_transfer():
    rng = np.random.default_rng(505)
    worst = -np.inf
    for _ in range(100):
        sys, K, cert = random_certified_pair(rng)
        eps = float(rng.uniform(1e-5, 1e-2))
        dA = rng.normal(size=sys.A.shape)
        dA *= eps * rng.uniform(0.1, 1.0) / np.linalg.norm(dA, 2)
        dB = rng.normal(size=sys.B.shape)
        dB *= eps * rng.uniform(0.1, 1.0) / np.linalg.norm(dB, 2)
        Hinv = np.linalg.inv(cert.H)
        L_prime = cert.L + Hinv @ (dA + dB @ K) @ cert.H
        slack = np.linalg.norm(L_prime, 2) - (1 - cert.gamma + 2 * eps * cert.kappa**2)
        worst = max(worst, slack)
    _report(5, worst <= 1e-10, f"(worst slack {worst:.3g})")


def test_criterion_06_decay_phase():
    rng = np.random.default_rng(606)
    ok = True
    detail = ""
    for i in range(20):
        sys, K, cert = random_certified_pair(rng)
        x0 = rng.normal(size=sys.d_x)
        x0 *= 10 ** rng.uniform(2.0, 6.0) / np.linalg.norm(x0)
        plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD, x0)
        result = decay(plant, K, cert.kappa, cert.gamma)
        x0n = float(np.linalg.norm(x0))
        terminal_ok = np.linalg.norm(result.x_final) <= 2 * cert.kappa / cert.gamma
        cost_ok = result.cost <= 16 * QUAD.G * cert.kappa**4 * x0n**3 / cert.gamma**3
        if not (terminal_ok and cost_ok):
            ok = False
            detail = f"(instance {i}: terminal {terminal_ok}, cost {cost_ok})"
            break
    _report(6, ok, detail or "(20 instances, ||x0|| up to 1e6)")


def test_criterion_07_gpc_correctness():
    rng = np.random.default_rng(707)
    worst_rel = 0.0
    for _ in range(100):
        H = int(rng.integers(1, 5))
        d_u = int(rng.integers(1, 3))
        d_x = int(rng.integers(1, 3))
        A = 0.5 * rng.normal(size=(d_x, d_x))
        B = rng.normal(size=(d_x, d_u))
        K = 0.4 * rng.normal(size=(d_u, d_x))
        w = rng.normal(size=(2 * H, d_x))
        M = 0.4 * rng.normal(size=(H, d_u, d_x))
        _, g = core_surrogate(M, A, B, K, w, QUAD)  # as gpc_run computes it
        num = np.zeros_like(g)
        h = 1e-6
        for idx in np.ndindex(g.shape):
            Mp, Mm = M.copy(), M.copy()
            Mp[idx] += h
            Mm[idx] -= h
            num[idx] = (surrogate_cost(Mp, A, B, K, w, QUAD)
                        - surrogate_cost(Mm, A, B, K, w, QUAD)) / (2 * h)
        worst_rel = max(worst_rel,
                        np.linalg.norm(g - num) / max(np.linalg.norm(num), 1e-9))
    grad_ok = worst_rel <= 1e-5

    # feasibility after every step, with a tight set so projection must clip
    sys = LinearSystem([[0.6]], [[1.0]])
    plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.5), QUAD, [0.0])
    res = gpc_run(plant, [[-0.3]], 1.05, 0.5, 4, 0.5, 300, sys.A, sys.B)
    feas_ok = res.max_constraint_violation <= 1e-12
    clipped = res.projection_active_rounds > 0

    # zero-noise fixed point is exact
    plant0 = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0])
    res0 = gpc_run(plant0, [[-0.3]], 4.0, 0.5, 4, 0.1, 100, sys.A, sys.B)
    zero_ok = res0.total_cost == 0.0 and np.all(res0.M == 0.0)

    _report(7, grad_ok and feas_ok and clipped and zero_ok,
            f"(worst grad rel err {worst_rel:.3g}, feasibility "
            f"{'ok' if feas_ok else 'violated'}, projection exercised {clipped}, "
            f"zero fixed point {zero_ok})")


def test_criterion_08_sublinear_regret_trend():
    t0 = time.monotonic()
    sys = LinearSystem([[0.5]], [[1.0]])
    prior = PriorBounds(1, 1.0, 1.0)
    regrets = {}
    for T in (2000, 8000, 32000):
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2), QUAD,
                              [0.0], seed=1)
        report = run_pipeline(plant, prior, T, overrides={"eps": 1e-3},
                              use_certified_stability=True,
                              comparator_iters=60, seed=1)
        assert report.regret_value >= -1e-6
        regrets[T] = report.regret_value
    Ts = sorted(regrets)
    xs = [math.log(t) for t in Ts]
    ys = [math.log(regrets[t]) for t in Ts]
    n = len(xs)
    slope = (n * sum(a * b for a, b in zip(xs, ys)) - sum(xs) * sum(ys)) \
        / (n * sum(a * a for a in xs) - sum(xs) ** 2)
    # trend invariant on the same data: regret / T^{2/3} non-increasing
    scaled = [regrets[t] / t ** (2.0 / 3.0) for t in Ts]
    trend_ok = all(b <= a * 1.15 for a, b in zip(scaled, scaled[1:]))
    elapsed = time.monotonic() - t0
    _report(8, slope <= 0.85 and trend_ok and elapsed < 300.0,
            f"(fitted slope {slope:.3g}, regrets "
            f"{[f'{regrets[t]:.3g}' for t in Ts]}, trend "
            f"{'ok' if trend_ok else 'violated'}, {elapsed:.1f}s)")


def test_criterion_09_deterministic_lower_bound():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for name in sorted(BUILTIN_CONTROLLERS):
        for d_x in (5, 10, 20):
            tr = deterministic_adversary(BUILTIN_CONTROLLERS[name], d_x)
            if not (tr.final_state_norm >= 2.0 ** (d_x - 1)
                    and tr.system_norm <= 2.0 + 1e-12):
                ok = False
                detail = f"({name}, d_x={d_x}: norm {tr.final_state_norm:.3g})"
    elapsed = time.monotonic() - t0
    _report(9, ok and elapsed < 10.0,
            detail or f"(4 controllers x 3 dimensions, {elapsed:.2f}s)")


def test_criterion_10_randomized_lower_bound():
    t0 = time.monotonic()
    d_x, gamma = 200, 40.0
    doubling_trials = 0
    growth_ok = True
    norm_trials = 0
    for seed in range(100):
        tr = randomized_lb_trial(zero_controller, d_x, gamma, seed=seed)
        assert len(tr.log) == 25
        if tr.all_doubled:
            doubling_trials += 1
            if tr.final_state_norm**2 < 2.0 ** (len(tr.log) - 1):
                growth_ok = False
        if tr.system_norm <= 3 * math.sqrt(gamma):
            norm_trials += 1
    elapsed = time.monotonic() - t0
    _report(10, doubling_trials >= 95 and growth_ok and norm_trials >= 95
            and elapsed < 120.0,
            f"(doubling in {doubling_trials}/100, ||A|| bound in "
            f"{norm_trials}/100, {elapsed:.1f}s)")


def test_criterion_11_min_energy_controls():
    rng = np.random.default_rng(1111)
    worst_miss = 0.0
    worst_energy = -np.inf
    for _ in range(100):
        sys, k, kappa, _ = random_controllable_system(rng)
        x_f = rng.normal(size=sys.d_x)
        controls = min_energy_controls(sys, k, x_f)
        x = np.zeros(sys.d_x)
        for u in controls:
            x = step(sys, x, u, np.zeros(sys.d_x))
        worst_miss = max(worst_miss, float(np.linalg.norm(x - x_f)))
        energy = float(np.sum(controls**2))
        worst_energy = max(worst_energy,
                           energy - kappa * float(x_f @ x_f) * (1 + 1e-9))
    _report(11, worst_miss <= 1e-8 and worst_energy <= 0.0,
            f"(worst landing miss {worst_miss:.3g}, worst energy slack "
            f"{worst_energy:.3g})")


def test_criterion_12_cli_reproducibility(tmp_path):
    from blackbox_lds.cli import main
    configs = {
        "pipeline": {
            "experiment": "pipeline", "seed": 7,
            "plant": {"kind": "explicit", "A": [[0.5]], "B": [[1.0]],
                      "x1": [0.0]},
            "prior": {"k": 1, "kappa": 1.0, "beta": 1.0},
            "horizon": 120,
            "disturbance": {"kind": "clipped_gaussian", "scale": 0.4},
            "cost": {"kind": "quadratic"},
            "overrides": {"eps": 1e-3},
            "options": {"use_certified_stability": True,
                        "comparator_iters": 25},
        },
        "lowerbound-rand": {"experiment": "lowerbound-rand", "d_x": 80,
                            "gamma": 40.0, "controller": "zero", "seed": 3},
        "lowerbound-det": {"experiment": "lowerbound-det", "d_x": 12,
                           "controller": "certainty_equivalent"},
    }
    ok = True
    for sub, cfg in configs.items():
        cfg_path = tmp_path / f"{sub}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{sub}_{run}"
            assert main([sub, "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("steps.csv", "summary.json"):
            b1 = (outs[0] / fname).read_bytes()
            b2 = (outs[1] / fname).read_bytes()
            if b1 != b2:
                ok = False
    _report(12, ok, "(pipeline, lowerbound-rand, lowerbound-det byte-identical)")
