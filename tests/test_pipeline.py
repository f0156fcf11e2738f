import dataclasses
import tracemalloc

import numpy as np
import pytest

from blackbox_lds import (
    BlackBoxPlant,
    CostFunction,
    LinearSystem,
    PriorBounds,
    ReplayDisturbance,
    SinusoidalDisturbance,
    ZeroDisturbance,
    derive_constants,
    regret,
    run_pipeline,
    step,
)
from blackbox_lds.errors import (
    ComparatorUnavailableError,
    ConfigError,
    PhaseError,
    ProbeScalingError,
)
from blackbox_lds.pipeline import GPC_STACK_BUDGET
from blackbox_lds.stabilize import RecoveryConstants
from blackbox_lds.sysid import epsilon_zero, probe_plan
from gpc_reference import ref_gpc_run

QUAD = CostFunction.quadratic()
# a stability pair that keeps the worst-case (uncertified) path short
WORST_CASE = {"eps": 1e-3, "kappa_tilde": 1.0, "gamma_tilde": 0.5}


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
        gpc_states = [r.x for r in report.log.records if r.phase == "gpc"]
        assert max(np.linalg.norm(x) for x in gpc_states) < 50.0
        assert report.regret_value >= -1e-6

    def test_horizon_too_short(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0], seed=0)
        with pytest.raises(PhaseError, match="sysid"):
            run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 3,
                         overrides={"eps": 1e-3})

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
        assert not any(r.phase == "gpc" for r in plant.log.records)
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
        records = report.log.records
        for a, b in zip(records, records[1:]):
            assert np.array_equal(step(sys, a.x, a.u, a.w), b.x)
        assert report.total_cost == pytest.approx(
            sum(report.phase_costs.values()))

    def test_phase_structure(self):
        _, _, report = self._benchmark(400)
        phases = [r.phase for r in report.log.records]
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
        assert regret(report) == pytest.approx(
            report.total_cost - report.comparator.cost)
        report.comparator = None
        with pytest.raises(ComparatorUnavailableError):
            regret(report)

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
        with pytest.raises(ComparatorUnavailableError):
            regret(report)

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
        assert {r.phase for r in report.log.records} == {"sysid", "decay", "gpc"}

    def test_broken_noise_assumption_surfaces_decay_diagnostic(self):
        # disturbances exceeding the unit-ball assumption wreck the estimates,
        # so the recovered controller fails to contract the true system and
        # the decay guard must surface the prior-violation diagnostic
        from blackbox_lds import DisturbanceSource

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
        assert len(report.log.records) == 400
        # the probing rounds are their own phase, between decay and gpc
        sysid = report.constants.T1 - 1
        T3 = 400 - sysid - report.decay_steps
        spent = min(report.constants.T0, max(T3 // 2, 1))
        phases = [r.phase for r in report.log.records]
        assert phases == (["sysid"] * sysid + ["decay"] * report.decay_steps
                          + ["reidentify"] * spent + ["gpc"] * report.gpc_steps)
        assert phases.count("gpc") == report.gpc_steps == T3 - spent
        assert sum(report.phase_costs.values()) == pytest.approx(
            report.total_cost, rel=1e-12)

    def test_gpc_phase_matches_reference_loop(self):
        # replay the logged GPC-round disturbances from the first GPC-round
        # state through the step-by-step reference loop with the report's
        # constants: it must reproduce the GPC-phase cost
        sys, plant, report = self._benchmark(400)
        gpc = [r for r in report.log.records if r.phase == "gpc"]
        assert len(gpc) == report.gpc_steps
        used = report.stability_used
        replay = BlackBoxPlant(sys, ReplayDisturbance([r.w for r in gpc]), QUAD,
                               gpc[0].x)
        total, _, active = ref_gpc_run(
            replay, report.recovery.K, used["kappa_star"], used["gamma"],
            used["H"], used["eta"], report.gpc_steps, report.estimates.A_hat,
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
            assert used[name] == getattr(cst, name)

    def test_certified_stability_derives_phase3_constants(self):
        # the certified pair enters the same formulas as kappa~/gamma~ do
        _, _, report = self._benchmark(400)
        used = report.stability_used
        assert used["source"] == "certified"
        cst = derive_constants(1, 1.0, 1.0, 1, 1, 400, overrides={
            "eps": 1e-3, "kappa_tilde": used["kappa"], "gamma_tilde": used["gamma"]})
        for name in ("kappa_star", "W", "H", "eta"):
            assert used[name] == getattr(cst, name)
        assert used["H"] <= report.gpc_steps
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
        assert used["kappa_star"] == 5.0
        assert used["W"] == 2.0 * 5.0 / used["gamma"]
        for name in ("W", "H", "eta"):
            assert used[name] == getattr(cst, name)

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
        assert report.recovery.constants.nu == 5.0
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
        assert report.stability_used["eta"] == expected
        assert expected != derive_constants(1, 1.0, 1.0, 1, 1, 400,
                                            overrides=WORST_CASE).eta

    def test_unresolvable_cost_spec_is_a_config_error(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), [], [0.0], seed=0)
        with pytest.raises(ConfigError, match="costs"):
            run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 400,
                         overrides={"eps": 1e-3})
        assert plant.t == 1  # raised before any round was played
