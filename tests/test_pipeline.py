import dataclasses
import tracemalloc
import types

import numpy as np
import pytest

from blackbox_lds import (
    BlackBoxPlant,
    CostFunction,
    DisturbanceSource,
    LinearSystem,
    PriorBounds,
    ReplayDisturbance,
    SinusoidalDisturbance,
    ZeroDisturbance,
    derive_constants,
    run_pipeline,
    step,
    strong_controllability_check,
)
from blackbox_lds.errors import (BlackBoxControlError, ConfigError,
                                 NotControllableError, PhaseError, ProbeScalingError)
from blackbox_lds.pipeline import GPC_STACK_BUDGET
from blackbox_lds.stabilize import RecoveryConstants
from blackbox_lds.sysid import epsilon_zero, probe_plan
from gpc_reference import ref_gpc_run

QUAD = CostFunction.quadratic()
# a stability pair that keeps the worst-case (uncertified) path short
WORST_CASE = {"eps": 1e-3, "kappa_tilde": 1.0, "gamma_tilde": 0.5}


def test_public_surface():
    # what `from blackbox_lds import *` gives: the reviewed __all__, which
    # names every function and class __init__ imports and no submodule; a
    # re-added export has to change this list
    import blackbox_lds
    names = [
        "AdversaryTranscript", "BlackBoxPlant", "ClippedGaussianDisturbance",
        "CostFunction", "DisturbanceSource", "EstimateBundle", "LinearSystem",
        "PhaseConstants", "PipelineReport", "PriorBounds", "ProbePlan",
        "ReplayDisturbance", "RunLog", "SdpBlockMatrix",
        "SignAdversarialDisturbance", "SinusoidalDisturbance",
        "StabilityCertificate", "SubspaceTracker", "ZeroDisturbance",
        "adv_sys_id", "best_dac_in_hindsight", "certify_strong_stability",
        "controllability_matrix", "controller_recovery", "decay",
        "derive_constants", "deterministic_adversary", "epsilon_zero",
        "extract_controller", "gpc_run", "min_energy_controls", "probe_plan",
        "project_affine", "project_psd_trace", "randomized_lb_trial",
        "run_pipeline", "sample_gaussian_system", "sdp_feasibility",
        "simulate", "step", "strong_controllability_check",
    ]
    assert sorted(blackbox_lds.__all__) == names
    # nothing else public is imported into the package namespace
    imported = {name for name in dir(blackbox_lds) if not name.startswith("_")
                and not isinstance(getattr(blackbox_lds, name), types.ModuleType)}
    assert imported == set(names)
    star = {}
    exec("from blackbox_lds import *", star)
    assert sorted(k for k in star if k != "__builtins__") == names


class TestDeriveConstants:
    def test_paper_formulas(self):
        c = derive_constants(1, 1.0, 1.0, 2, 1, 1000)
        assert c.C == pytest.approx(3.0)
        assert c.kappa_prime == pytest.approx(np.sqrt(6))
        assert c.gamma_prime == pytest.approx(1 / 12)
        assert c.eps == pytest.approx(1.3396e-11, rel=1e-3)
        assert c.kappa_tilde == pytest.approx(58.8, rel=1e-2)
        assert c.gamma_tilde == pytest.approx(7.23e-5, rel=1e-2)
        assert c.lam == pytest.approx(8.0)
        assert c.T1 == 3

    def test_override_reroutes_downstream(self):
        c = derive_constants(1, 1.0, 1.0, 2, 1, 1000, overrides={"eps": 1e-3})
        assert c.eps == 1e-3
        assert c.provenance["eps"] == "override"
        assert c.provenance["eps0"] == "derived-from-override"
        assert c.provenance["lam"] == "default"
        assert c.eps0 == pytest.approx(
            epsilon_zero(1e-3, 1, 1, 8.0, 2, 1.0))

    def test_recovery_constants_match(self, rng):
        # nu, kappa~ and gamma~ of derive_constants are exactly those that
        # controller_recovery derives from (kappa', gamma', eps)
        for _ in range(50):
            d_x, d_u, k = (int(v) for v in rng.integers(1, 6, size=3))
            kappa_prime = float(rng.uniform(1.0, 10.0))
            gamma_prime = float(rng.uniform(0.1, 1.0)) / (2.0 * kappa_prime**2)
            overrides = {"kappa_prime": kappa_prime, "gamma_prime": gamma_prime}
            if rng.random() < 0.5:  # else the eps formula
                overrides["eps"] = (float(rng.uniform(0.01, 0.99)) * gamma_prime
                                    / (2.0 * kappa_prime**2))
            c = derive_constants(k, float(rng.uniform(1.0, 10.0)),
                                 float(rng.uniform(1.0, 1.5)), d_x, d_u,
                                 int(rng.integers(100, 10**6)), overrides=overrides)
            rc = RecoveryConstants.from_existence(c.kappa_prime, c.gamma_prime,
                                                  c.eps, d_x)
            assert (c.nu, c.kappa_tilde, c.gamma_tilde) \
                == (rc.nu, rc.kappa_tilde, rc.gamma_tilde)

    def test_transfer_margin_checked(self):
        with pytest.raises(ValueError, match="gamma' must exceed 2 eps kappa'"):
            derive_constants(1, 1.0, 1.0, 2, 1, 1000,
                             overrides={"eps": 0.4, "gamma_prime": 0.1})

    @pytest.mark.parametrize("kappa,overrides,name", [
        (1e200, None, "C"),  # kappa**2 overflows
        (1.0, {"eps": 1e-3, "kappa_star": 1e200}, "H"),  # kappa*^2 T overflows
    ])
    def test_overflow_names_the_constant(self, kappa, overrides, name):
        # both escaped as a bare OverflowError
        with pytest.raises(ConfigError) as err:
            derive_constants(1, kappa, 1.0, 1, 1, 1000, overrides=overrides)
        assert err.value.path == name
        assert "must be positive and finite, got inf" in err.value.message

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown constant overrides"):
            derive_constants(1, 1.0, 1.0, 2, 1, 1000, overrides={"zeta": 1.0})

    def test_unrepresentable_without_override(self):
        # beta large enough that lam^{3k} based scales overflow
        with pytest.raises(ProbeScalingError, match="supply eps override"):
            derive_constants(3, 2.0, 20.0, 4, 2, 1000)

    def test_unrepresentable_rescued_by_override(self):
        # the worst-case eps formula underflows here; supplying better existence
        # constants plus a practical eps restores a usable schedule
        with pytest.raises(ProbeScalingError):
            derive_constants(3, 2.0, 20.0, 4, 2, 1000)
        c = derive_constants(3, 2.0, 20.0, 4, 2, 1000,
                             overrides={"eps": 1e-3, "kappa_prime": 2.0,
                                        "gamma_prime": 0.1, "lam": 8.0})
        assert c.eps0 > 0
        assert c.nu > 0
        probe_plan(3, 2, c.lam, c.eps0)
        assert c.provenance["nu"] == "derived-from-override"


class TestRunPipeline:
    def _benchmark(self, T, seed=1):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2), QUAD,
                              [0.0], seed=seed)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), T,
                              overrides={"eps": 1e-3},
                              use_certified_stability=True,
                              comparator_iters=60, seed=seed)
        return sys, plant, report

    def test_scalar_benchmark_end_to_end(self):
        sys, plant, report = self._benchmark(400)
        assert np.linalg.norm(report.estimates.A_hat - sys.A, 2) <= 1e-3
        assert np.linalg.norm(report.estimates.B_hat - sys.B, 2) <= 1e-3
        rho = abs(sys.A[0, 0] + sys.B[0, 0] * report.recovery.K[0, 0])
        assert rho < 1.0
        # Phase-3 states bounded, regret not meaningfully negative
        gpc_states = [x for x, phase in zip(report.log.states(), report.log.phases)
                      if phase == "gpc"]
        assert max(np.linalg.norm(x) for x in gpc_states) < 50.0
        assert report.regret_value >= -1e-6

    def test_horizon_too_short(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0], seed=0)
        with pytest.raises(PhaseError, match="sysid"):
            run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 3,
                         overrides={"eps": 1e-3})

    def test_decay_past_the_horizon_is_refused_before_it_plays(self):
        # T1 - 1 = 2 probing rounds leave 8 of T = 10, and decay needs
        # T2 = 30: refused before its first round, where it used to play
        # all 30 and then refuse
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2), QUAD,
                              [0.0], seed=1)
        with pytest.raises(PhaseError) as err:
            run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 10,
                         overrides={"eps": 1e-3}, use_certified_stability=True,
                         seed=1)
        assert err.value.phase == "gpc"
        assert "decay would consume the horizon: T1-1 + T2 = 32 >= T = 10" \
            in str(err.value)
        assert plant.log.phases == ["sysid"] * 2

    @staticmethod
    def _gpc_refusal(T, overrides, certified):
        """Run the criterion-08 plant into a PhaseError("gpc") under
        tracemalloc; returns (error, traced peak bytes, plant)."""
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2), QUAD,
                              [0.0], seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(PhaseError) as info:
                run_pipeline(plant, PriorBounds(1, 1.0, 1.0), T,
                             overrides=overrides,
                             use_certified_stability=certified, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.phase == "gpc"
        # refused before the first decay round
        assert "decay" not in plant.log.phases and "gpc" not in plant.log.phases
        return info.value, peak, plant

    @pytest.mark.parametrize("T,overrides,certified", [
        # worst-case constants: decay takes 8899 of the rounds, H = 19642
        (10000, {"eps": 1e-3}, False),
        (400, {"eps": 1e-3, "H": 16861}, True),
    ])
    def test_horizon_longer_than_gpc_phase(self, T, overrides, certified):
        # the (H+1) x H window stack of phase 3 would take gigabytes, so the
        # check must come before phase 3 allocates anything
        error, peak, _ = self._gpc_refusal(T, overrides, certified)
        message = str(error)
        assert "H override" in message and "certified stability" in message
        # certified stability is offered only where it is not already used
        assert ("or use certified stability" in message) == (not certified)
        assert f"H={overrides.get('H', 19642)}" in message
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("T,overrides,certified,H", [
        # worst-case constants: H = 20840 fits in the 31101 GPC rounds, but
        # its window stacks would take 6.6 GiB
        (40000, {"eps": 1e-3}, False, 20840),
        (6400, {"eps": 1e-3, "H": 6000}, True, 6000),
    ])
    def test_window_stacks_over_budget(self, T, overrides, certified, H):
        error, peak, plant = self._gpc_refusal(T, overrides, certified)
        assert H <= T - len(plant.log)  # not the H > T_gpc refusal
        assert 8 * (H + 1) * H * 2 > GPC_STACK_BUDGET
        message = str(error)
        assert f"H={H}" in message and "MiB budget" in message
        assert "H override" in message
        assert ("or use certified stability" in message) == (not certified)
        assert peak < 64 * 2**20

    def test_decay_terminal_bound(self):
        # ||x|| after decay <= 2 kappa/gamma for the stability pair in force
        _, _, report = self._benchmark(400)
        bound = 2 * report.stability_used["kappa"] / report.stability_used["gamma"]
        assert report.x_after_decay_norm <= bound

    def test_phase1_terminal_state_bound(self):
        sys, plant, report = self._benchmark(400)
        cst = report.constants
        plan = probe_plan(1, 1, cst.lam, cst.eps0)
        T1 = cst.T1
        assert report.x_after_sysid_norm <= plan.state_bound(T1)

    def test_report_integrity_replay(self):
        # replaying logged controls through the core reproduces logged states
        sys, plant, report = self._benchmark(400)
        log = report.log
        X, U, W = log.states(), log.controls(), log.disturbances()
        for t in range(len(log) - 1):
            assert np.array_equal(step(sys, X[t], U[t], W[t]), X[t + 1])
        assert report.total_cost == pytest.approx(
            sum(report.phase_costs.values()))

    def test_phase_structure(self):
        _, _, report = self._benchmark(400)
        phases = report.log.phases
        T1 = report.constants.T1
        assert phases[: T1 - 1] == ["sysid"] * (T1 - 1)
        assert set(phases[T1 - 1: T1 - 1 + report.decay_steps]) <= {"decay"}
        assert phases[-1] == "gpc"
        assert len(phases) == 400

    def test_projection_active_rounds_counted(self):
        _, _, report = self._benchmark(400)
        active = report.gpc_result.projection_active_rounds
        assert isinstance(active, int)
        assert 0 <= active <= report.gpc_steps

    def test_regret_op(self):
        _, _, report = self._benchmark(400)
        assert report.regret_value is not None
        assert report.regret_value == report.total_cost - report.comparator.cost

    def test_zero_noise_regret_equals_total_cost(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0], seed=0)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 1000,
                              overrides={"eps": 1e-3},
                              use_certified_stability=True, seed=0)
        # noiseless: exact estimates, and J* = 0 is attained by M = 0
        assert np.linalg.norm(report.estimates.A_hat - sys.A, 2) <= 1e-10
        assert np.linalg.norm(report.estimates.B_hat - sys.B, 2) <= 1e-10
        assert report.comparator.cost == pytest.approx(0.0, abs=1e-9)
        assert report.regret_value == pytest.approx(report.total_cost)

    def test_blackbox_mode_hides_regret(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0], seed=0,
                              simulation_mode=False)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 200,
                              overrides={"eps": 1e-3},
                              use_certified_stability=True, seed=0)
        assert report.comparator is None
        assert report.regret_value is None
        assert report.log is None

    def test_two_dimensional_instance(self):
        sys = LinearSystem(np.diag([0.9, 0.9]), np.eye(2))
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(2, omega=0.4), QUAD,
                              np.zeros(2), seed=3)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 4000,
                              overrides={"eps": 1e-3},
                              use_certified_stability=True,
                              comparator_iters=40, seed=3)
        bound = 2 * report.stability_used["kappa"] / report.stability_used["gamma"]
        assert report.x_after_decay_norm <= bound
        assert set(report.log.phases) == {"sysid", "decay", "gpc"}

    def test_non_normal_mimo_plant_end_to_end(self):
        # a random unstable plant, d_x = 4 and d_u = 2, whose A is far from
        # normal; the constants are the pipeline's own from (eps, kappa',
        # gamma'), and H is cut to 10 so that phase 3 fits in the horizon
        g = np.random.default_rng(7)
        d_x, d_u = int(g.integers(3, 5)), int(g.integers(1, 3))
        A = g.normal(size=(d_x, d_x))
        A *= 1.1 / max(abs(np.linalg.eigvals(A)))
        B = g.normal(size=(d_x, d_u))
        B /= np.linalg.norm(B, 2)
        sys = LinearSystem(A, B)
        assert (d_x, d_u) == (4, 2)
        assert np.linalg.norm(A @ A.T - A.T @ A, 2) > 1.0
        for k in range(1, d_x + 1):
            ok, kappa = strong_controllability_check(sys, k)
            if ok:
                break
        assert ok and k == 2
        beta = max(1.0, np.linalg.norm(A, 2), np.linalg.norm(B, 2))
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(d_x, omega=0.3), QUAD,
                              np.zeros(d_x), seed=7)
        report = run_pipeline(plant, PriorBounds(k, kappa, beta), 3000,
                              overrides={"eps": 1e-6, "kappa_prime": 1.5,
                                         "gamma_prime": 0.5, "H": 10},
                              use_certified_stability=True, comparator_iters=20,
                              seed=7)
        eps = report.constants.eps
        assert np.linalg.norm(report.estimates.A_hat - A, 2) <= eps
        assert np.linalg.norm(report.estimates.B_hat - B, 2) <= eps
        # phase 2 is not solved at its first iterate (388 iterations)
        assert report.recovery.sdp_iterations > 100
        assert report.recovery.norm_L <= 1 - 1 / (2 * report.constants.nu)
        bound = 2 * report.stability_used["kappa"] / report.stability_used["gamma"]
        assert report.decay_steps > 0
        assert report.x_after_decay_norm <= bound
        assert report.gpc_steps > 0
        assert report.gpc_result.max_constraint_violation <= 1e-9

    def test_broken_noise_assumption_surfaces_decay_diagnostic(self):
        # disturbances exceeding the unit-ball assumption wreck the estimates,
        # so the recovered controller fails to contract the true system and
        # the decay guard must surface the prior-violation diagnostic
        class HugeNoise(DisturbanceSource):
            def __call__(self, t, x):
                return np.array([3e4 * (-1.0) ** t])

        sys = LinearSystem([[0.9]], [[1.0]])
        plant = BlackBoxPlant(sys, HugeNoise(), QUAD, [0.0], seed=0)
        with pytest.raises(PhaseError) as err:
            run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 500,
                         overrides={"eps": 1e-2},
                         use_certified_stability=True, seed=0)
        assert err.value.phase in ("decay", "recover")

    def test_reidentify_mode(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2), QUAD,
                              [0.0], seed=5)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 400,
                              overrides={"eps": 1e-3},
                              use_certified_stability=True, reidentify=True,
                              comparator_iters=40, seed=5)
        assert report.regret_value is not None
        assert len(report.log.phases) == 400
        # the probing rounds are their own phase, between decay and gpc
        sysid = report.constants.T1 - 1
        T3 = 400 - sysid - report.decay_steps
        spent = min(report.constants.T0, max(T3 // 2, 1))
        phases = report.log.phases
        assert phases == (["sysid"] * sysid + ["decay"] * report.decay_steps
                          + ["reidentify"] * spent + ["gpc"] * report.gpc_steps)
        assert phases.count("gpc") == report.gpc_steps == T3 - spent
        assert sum(report.phase_costs.values()) == pytest.approx(
            report.total_cost, rel=1e-12)
        # phase 3 ran on the correlation estimate from these 55 rounds: 0.155
        # from the truth, where joint least squares on them gave 0.358
        A_p3, B_p3 = report.gpc_model
        assert np.linalg.norm(np.hstack([A_p3 - sys.A, B_p3 - sys.B]), 2) <= 0.2
        # the probing rounds play u_t = K x_t + eta_t, eta_t drawn one round at
        # a time from default_rng(seed), bitwise: the controls do not depend
        # on the estimator
        rounds = np.flatnonzero(np.array(phases) == "reidentify")
        rng = np.random.default_rng(5)
        K = report.recovery.K
        for x, u in zip(report.log.states()[rounds], report.log.controls()[rounds]):
            assert np.array_equal(u, K @ x + rng.choice([-1.0, 1.0], size=1))

    def _reidentify_run(self, dist=None, T=400, **overrides):
        # test_reidentify_mode's config; its probing rounds are 33 .. 87
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, dist or SinusoidalDisturbance(1, omega=0.2),
                              QUAD, [0.0], seed=5)
        with pytest.raises(PhaseError) as err:
            run_pipeline(plant, PriorBounds(1, 1.0, 1.0), T,
                         overrides={"eps": 1e-3, **overrides},
                         use_certified_stability=True, reidentify=True,
                         comparator_iters=40, seed=5)
        return plant, err.value

    def test_reidentify_nonfinite_state_is_phase_tagged(self):
        # it escaped as a bare "non-finite state at step 36"
        sinusoid = SinusoidalDisturbance(1, omega=0.2)

        class InfFrom35(DisturbanceSource):
            def __call__(self, t, x):
                return np.array([np.inf]) if t >= 35 else sinusoid(t, x)

        plant, err = self._reidentify_run(InfFrom35())
        assert err.phase == "reidentify"
        assert str(err.__cause__) == "non-finite state at step 36"
        assert plant.log.phases.count("reidentify") == 2  # rounds 33 and 34

    def test_reidentify_rank_deficient_blocks_are_phase_tagged(self, monkeypatch):
        # the first solve is phase 1's; the second, on the correlation
        # blocks, finds them rank deficient
        from blackbox_lds import sysid
        solve_A, calls = sysid.solve_A, []

        def second_call_refuses(C0, C1):
            calls.append(1)
            if len(calls) == 2:
                raise NotControllableError("estimates not controllable")
            return solve_A(C0, C1)

        monkeypatch.setattr(sysid, "solve_A", second_call_refuses)
        plant, err = self._reidentify_run()
        assert err.phase == "reidentify"
        assert isinstance(err.__cause__, NotControllableError)
        assert plant.log.phases.count("reidentify") == 55

    def test_reidentify_needs_k_plus_one_rounds(self):
        plant, err = self._reidentify_run(T0=1)
        assert err.phase == "reidentify"
        assert "1 probing rounds cannot estimate 2 blocks" in str(err)
        assert "reidentify" not in plant.log.phases

    def test_dac_horizon_checked_before_reidentify_rounds(self):
        # 400 - 87 = 313 rounds would be left for GPC, fewer than H = 330:
        # refused before the 55 probing rounds are spent
        plant, err = self._reidentify_run(H=330)
        assert err.phase == "gpc"
        assert "exceeds the 313 rounds left for GPC" in str(err)
        assert "decay" not in plant.log.phases
        assert "reidentify" not in plant.log.phases

    def test_gpc_phase_matches_reference_loop(self):
        # replay the logged GPC-round disturbances from the first GPC-round
        # state through the step-by-step reference loop with the report's
        # constants: it must reproduce the GPC-phase cost
        sys, plant, report = self._benchmark(400)
        gpc = np.array(report.log.phases) == "gpc"
        assert gpc.sum() == report.gpc_steps
        cst = report.constants
        replay = BlackBoxPlant(sys, ReplayDisturbance(report.log.disturbances()[gpc]),
                               QUAD, report.log.states()[gpc][0])
        total, _, active = ref_gpc_run(
            replay, report.recovery.K, cst.kappa_star, report.stability_used["gamma"],
            cst.H, cst.eta, report.gpc_steps, report.estimates.A_hat,
            report.estimates.B_hat)
        assert report.phase_costs["gpc"] == pytest.approx(total, rel=1e-12, abs=0.0)
        assert report.gpc_result.total_cost == pytest.approx(total, rel=1e-12,
                                                             abs=0.0)
        assert report.gpc_result.projection_active_rounds == active

    def test_worst_case_stability_uses_derived_constants(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2), QUAD,
                              [0.0], seed=1, simulation_mode=False)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 400,
                              overrides=WORST_CASE, seed=1)
        cst = derive_constants(1, 1.0, 1.0, 1, 1, 400, overrides=WORST_CASE)
        used = report.stability_used
        assert used["source"] == "worst-case"
        assert (used["kappa"], used["gamma"]) == (cst.kappa_tilde, cst.gamma_tilde)
        for name in ("kappa_star", "W", "H", "eta"):
            assert getattr(report.constants, name) == getattr(cst, name)

    def test_certified_stability_derives_phase3_constants(self):
        # the certified pair enters the same formulas as kappa~/gamma~ do
        _, _, report = self._benchmark(400)
        used = report.stability_used
        assert used["source"] == "certified"
        cst = derive_constants(1, 1.0, 1.0, 1, 1, 400, overrides={
            "eps": 1e-3, "kappa_tilde": used["kappa"], "gamma_tilde": used["gamma"]})
        for name in ("kappa_star", "W", "H", "eta"):
            assert getattr(report.constants, name) == getattr(cst, name)
        assert report.constants.H == report.gpc_result.M.shape[0] <= report.gpc_steps
        # an overridden kappa_star holds, and W, H and eta follow it
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2), QUAD,
                              [0.0], seed=1, simulation_mode=False)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 400,
                              overrides={"eps": 1e-3, "kappa_star": 5.0},
                              use_certified_stability=True, seed=1)
        used = report.stability_used
        cst = derive_constants(1, 1.0, 1.0, 1, 1, 400, overrides={
            "eps": 1e-3, "kappa_tilde": used["kappa"], "gamma_tilde": used["gamma"],
            "kappa_star": 5.0})
        assert report.constants.kappa_star == 5.0
        assert report.constants.W == 2.0 * 5.0 / used["gamma"]
        for name in ("W", "H", "eta"):
            assert getattr(report.constants, name) == getattr(cst, name)

    def test_certified_chain_failure_is_refused_before_decay(self):
        # beta = 1e200 with C and lam overridden: phases 1 and 2 run, and
        # kappa* = 4 kappa~^2 k^2 beta^2k kappa overflows only once the
        # certified kappa~ enters; it used to escape as a bare OverflowError
        # before round 1
        def run(certified):
            plant = BlackBoxPlant(LinearSystem([[0.5]], [[1.0]]),
                                  SinusoidalDisturbance(1, omega=0.2), QUAD,
                                  [0.0], seed=1)
            with pytest.raises(BlackBoxControlError) as err:
                run_pipeline(plant, PriorBounds(1, 1.0, 1e200), 400,
                             overrides={"eps": 1e-3, "C": 3.0, "lam": 8.0},
                             use_certified_stability=certified, seed=1)
            return err.value, plant.log.phases

        err, phases = run(True)
        assert isinstance(err, PhaseError) and err.phase == "gpc"
        assert isinstance(err.__cause__, ConfigError)
        assert err.__cause__.path == "kappa_star"
        assert phases == ["sysid"] * 2  # no decay round
        # the worst-case path refuses the same constant before round 1
        err, phases = run(False)
        assert isinstance(err, ConfigError) and err.path == "kappa_star"
        assert phases == []

    def test_certified_path_reads_no_worst_case_stability(self, monkeypatch):
        # with nu overridden, neither phase reads from_existence's outputs;
        # a constant no phase read that fails (C overflows at beta = 1e60)
        # is recorded as None
        def refuse(*args):
            raise AssertionError("from_existence called")

        monkeypatch.setattr(RecoveryConstants, "from_existence", staticmethod(refuse))
        plant = BlackBoxPlant(LinearSystem([[0.5]], [[1.0]]),
                              SinusoidalDisturbance(1, omega=0.2), QUAD, [0.0],
                              seed=1)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1e60), 400,
                              overrides={"eps": 1e-3, "lam": 8.0, "nu": 200.0,
                                         "kappa_star": 5.0, "H": 10},
                              use_certified_stability=True, seed=1)
        record = report.constants.as_dict()
        assert record["C"] is record["kappa_prime"] is record["gamma_prime"] is None
        assert "C" not in report.constants.provenance
        assert record["W"] == 2.0 * 5.0 / report.stability_used["gamma"]
        assert report.gpc_steps > 0

    def test_nu_override_caps_the_recovery_sdp(self):
        def run(nu):
            plant = BlackBoxPlant(LinearSystem([[0.5]], [[1.0]]),
                                  SinusoidalDisturbance(1, omega=0.2), QUAD,
                                  [0.0], seed=1, simulation_mode=False)
            return run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 400,
                                overrides={"eps": 1e-3, "nu": nu},
                                use_certified_stability=True, seed=1)

        report = run(5.0)  # the formula gives nu = 112.03 here
        assert report.constants.nu == 5.0
        assert np.trace(report.recovery.sigma.sigma) <= 5.0 + 1e-9
        assert report.recovery.norm_L <= 1.0 - 1.0 / (2.0 * 5.0)
        # Sigma_xx >= I on a scalar plant, so a trace cap below 1 is infeasible
        with pytest.raises(PhaseError) as err:
            run(0.5)
        assert err.value.phase == "recover"

    def test_cost_scale_sets_eta(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        cost = dataclasses.replace(QUAD, G=5.0)
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2), cost,
                              [0.0], seed=1, simulation_mode=False)
        assert plant.cost_scale == 5.0
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 400,
                              overrides=WORST_CASE, seed=1)
        expected = derive_constants(1, 1.0, 1.0, 1, 1, 400, overrides=WORST_CASE,
                                    G=5.0).eta
        assert report.constants.G == 5.0
        assert report.constants.eta == expected
        assert expected != derive_constants(1, 1.0, 1.0, 1, 1, 400,
                                            overrides=WORST_CASE).eta

    def test_unresolvable_cost_spec_is_a_config_error(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), [], [0.0], seed=0)
        with pytest.raises(ConfigError, match="costs"):
            run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 400,
                         overrides={"eps": 1e-3})
        assert plant.t == 1  # raised before any round was played


# (key, a second valid value, the observation it must change); kappa~ reaches
# decay only through its divergence checks, which play no other round, so it
# is seen through the kappa* it sets for phase 3
_OVERRIDE_CASES = [
    ("eps", 1e-3, "probes"),
    ("lam", 9.0, "probes"),
    ("C", 4.0, "probes"),
    ("nu", 50.0, "recovery"),
    ("kappa_prime", 2.0, "recovery"),
    ("gamma_prime", 0.1, "recovery"),
    ("kappa_tilde", 2.0, "gpc"),
    ("gamma_tilde", 0.25, "decay"),
    ("kappa_star", 8.0, "gpc"),
    ("W", 32.0, "gpc"),
    ("H", 10, "gpc"),
    ("eta", 0.01, "gpc"),
    ("T0", 20, "reidentify"),
]


class TestEveryOverrideIsRead:
    """Each accepted override changes what the phase consuming it does, on
    one scalar run: the worst-case path (the only one that reads kappa~ and
    gamma~, here small enough to give H = 18) with reidentify (T0) and the
    prior's own eps."""

    BASE = {"kappa_tilde": 1.0, "gamma_tilde": 0.5}

    @staticmethod
    def _observe(report):
        log = report.log
        return {
            "probes": log.controls()[: report.constants.T1 - 1],
            "recovery": np.concatenate([report.recovery.sigma.sigma.ravel(),
                                        report.recovery.K.ravel()]),
            "decay": report.decay_steps,
            "reidentify": log.phases.count("reidentify"),
            "gpc": report.gpc_result.M,
        }

    def _run(self, **overrides):
        plant = BlackBoxPlant(LinearSystem([[0.5]], [[1.0]]),
                              SinusoidalDisturbance(1, omega=0.2), QUAD, [0.0],
                              seed=1)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 400,
                              overrides={**self.BASE, **overrides},
                              reidentify=True, comparator_iters=1, seed=1)
        assert report.stability_used["source"] == "worst-case"
        return report

    @pytest.mark.parametrize("key,value,phase", _OVERRIDE_CASES)
    def test_override_changes_its_phase(self, key, value, phase):
        base = self._observe(self._run())
        report = self._run(**{key: value})
        assert getattr(report.constants, key) == value
        assert report.constants.provenance[key] == "override"
        assert not np.array_equal(self._observe(report)[phase], base[phase])

    def test_every_overridable_key_is_covered(self):
        from blackbox_lds.pipeline import _OVERRIDABLE
        assert sorted(key for key, _, _ in _OVERRIDE_CASES) == sorted(_OVERRIDABLE)
        assert len(_OVERRIDABLE) == 13

    @pytest.mark.parametrize("key", ["eps0", "T1"])
    def test_derived_only_constants_are_refused(self, key):
        with pytest.raises(ConfigError) as err:
            self._run(**{key: 1e-9})
        assert err.value.path == key
        assert "derived only" in err.value.message
