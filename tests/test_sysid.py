import numpy as np
import pytest

from blackbox_lds import (
    BlackBoxPlant,
    CostFunction,
    LinearSystem,
    SignAdversarialDisturbance,
    SinusoidalDisturbance,
    ZeroDisturbance,
    adv_sys_id,
    epsilon_zero,
    probe_plan,
    step,
)
from blackbox_lds.errors import NotControllableError, ProbeScalingError
from blackbox_lds.sysid import assemble_estimates, closed_loop_sys_id, solve_A
from conftest import random_controllable_system

QUAD = CostFunction.quadratic()


class TestEpsilonZero:
    def test_direct_evaluation(self):
        # eps / (100 d_u^2 k^2 lam^{3k} d_x sqrt(kappa))
        assert epsilon_zero(1e-2, 1, 1, 8, 2, 1) == pytest.approx(1e-2 / 102400)
        assert epsilon_zero(1e-2, 1, 1, 1, 1, 1) == pytest.approx(1e-4)

    def test_eps_must_be_small(self):
        with pytest.raises(ValueError):
            epsilon_zero(0.5, 1, 1, 1, 1, 1)

    def test_underflow_guard(self):
        with pytest.raises(ProbeScalingError):
            epsilon_zero(1e-300, 4, 8, 1e30, 10, 100.0)


class TestProbePlan:
    def test_two_inputs(self):
        plan = probe_plan(1, 2, 8.0, 0.1)
        assert np.allclose(plan.control_at(1), [10.0, 0.0])
        assert np.allclose(plan.control_at(2), [0.0, 0.0])
        assert np.allclose(plan.control_at(3), [0.0, 64.0 * 100.0])
        assert np.allclose(plan.control_at(4), [0.0, 0.0])

    def test_single_input_k2(self):
        plan = probe_plan(2, 1, 8.0, 0.1)
        assert plan.control_at(1)[0] == pytest.approx(10.0)
        assert plan.control_at(2)[0] == 0.0
        assert plan.control_at(3)[0] == 0.0

    def test_first_scale(self):
        assert probe_plan(1, 1, 1.0, 0.1).xi[0] == pytest.approx(10.0)

    def test_scales_increase(self):
        plan = probe_plan(2, 3, 8.0, 1e-3)
        assert np.all(np.diff(plan.xi) > 0)

    def test_overflow_names_probe(self):
        with pytest.raises(ProbeScalingError, match="i=2"):
            probe_plan(1, 2, 1e200, 1e-200)


class TestAssemble:
    def test_noiseless_scalar_from_origin(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plan = probe_plan(1, 1, 8.0, 1e-4)
        xs = [np.zeros(1)]
        for t in range(1, plan.horizon + 1):
            xs.append(step(sys, xs[-1], plan.control_at(t), [0.0]))
        bundle = assemble_estimates(xs, plan)
        assert bundle.M_hat[0][0, 0] == pytest.approx(1.0)
        assert bundle.M_hat[1][0, 0] == pytest.approx(0.5)

    def test_all_zero_states(self):
        # all-zero responses give all-zero blocks, which from_blocks refuses
        # before a bundle with a meaningless A_hat exists
        plan = probe_plan(1, 2, 8.0, 1e-2)
        xs = [np.zeros(2)] * (plan.horizon + 1)
        with pytest.raises(NotControllableError):
            assemble_estimates(xs, plan)

    def test_nonzero_start_contamination(self):
        # x1 = 1 contributes A x1 to the probe response: M0 = 1 + A/xi
        sys = LinearSystem([[0.5]], [[1.0]])
        plan = probe_plan(1, 1, 8.0, 1e-4)
        xs = [np.ones(1)]
        for t in range(1, plan.horizon + 1):
            xs.append(step(sys, xs[-1], plan.control_at(t), [0.0]))
        bundle = assemble_estimates(xs, plan)
        assert bundle.M_hat[0][0, 0] == pytest.approx(1.0 + 5e-5)

    def test_missing_states(self):
        plan = probe_plan(1, 1, 8.0, 1e-4)
        with pytest.raises(IndexError):
            assemble_estimates([np.zeros(1)], plan)


class TestSolveA:
    def test_scalar(self):
        assert solve_A(np.array([[1.0]]), np.array([[0.5]]))[0, 0] == pytest.approx(0.5)

    def test_identity_regressor(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(solve_A(np.eye(2), M), M)

    def test_overdetermined_consistent(self):
        C0 = np.array([[1.0, 0.5]])
        C1 = np.array([[0.5, 0.25]])
        assert solve_A(C0, C1)[0, 0] == pytest.approx(0.5)

    def test_singular_gram_rejected(self):
        with pytest.raises(NotControllableError):
            solve_A(np.zeros((2, 2)), np.eye(2))


class TestAdvSysId:
    def test_noiseless_scalar_exact(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0])
        bundle = adv_sys_id(plant, 1e-3, 8.0, 1, 1.0)
        assert bundle.A_hat[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert bundle.B_hat[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_nilpotent_exact(self):
        sys = LinearSystem([[0, 1], [0, 0]], np.eye(2))
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, np.zeros(2))
        bundle = adv_sys_id(plant, 1e-3, 8.0, 1, 1.0)
        assert np.linalg.norm(bundle.A_hat - sys.A, 2) <= 1e-10
        assert np.linalg.norm(bundle.B_hat - sys.B, 2) <= 1e-10

    def test_sign_adversarial_within_eps(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD, [0.0])
        bundle = adv_sys_id(plant, 1e-3, 8.0, 1, 1.0)
        assert abs(bundle.A_hat[0, 0] - 0.5) <= 1e-3
        assert abs(bundle.B_hat[0, 0] - 1.0) <= 1e-3

    def test_warns_on_large_start(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [3.0])
        with pytest.warns(UserWarning, match=r"\|\|x1\|\| > 1"):
            adv_sys_id(plant, 1e-3, 8.0, 1, 1.0)

    def test_state_magnitude_invariant(self, rng):
        # Claim: ||x_t|| <= lam^{t-1} eps0^{-i} along every probing trajectory
        for _ in range(20):
            sys, k, kappa, beta = random_controllable_system(rng, d_x_max=3)
            lam = 8.0 * beta
            plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD,
                                  np.zeros(sys.d_x))
            adv_sys_id(plant, 1e-2, lam, k, kappa)
            eps0 = epsilon_zero(1e-2, sys.d_u, k, lam, sys.d_x, kappa)
            plan = probe_plan(k, sys.d_u, lam, eps0)
            states = list(plant.log.states()) + [plant.state]
            for t in range(2, len(states) + 1):
                assert np.linalg.norm(states[t - 1]) <= plan.state_bound(t)

    def test_block_error_bound(self, rng):
        # ||M_hat_j - A^j B||_F <= 3 d_u^2 k lam^{2k} eps0 under ||w|| <= 1
        for _ in range(20):
            sys, k, kappa, beta = random_controllable_system(rng, d_x_max=3)
            lam = 8.0 * beta
            eps = 1e-2
            plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD,
                                  np.zeros(sys.d_x))
            bundle = adv_sys_id(plant, eps, lam, k, kappa)
            eps0 = epsilon_zero(eps, sys.d_u, k, lam, sys.d_x, kappa)
            bound = 3 * sys.d_u**2 * k * lam ** (2 * k) * eps0
            power = sys.B.copy()
            for j in range(k + 1):
                assert np.linalg.norm(bundle.M_hat[j] - power) <= bound
                power = sys.A @ power

    def test_phase_cost_bound(self, rng):
        # logged probing cost <= 8 G k d_u (1e4 eps^-2 d_u^4 k^4 lam^{10k} d_x^2 kappa)^{d_u}
        for _ in range(5):
            sys, k, kappa, beta = random_controllable_system(
                rng, d_x_max=2, d_u_max=1)
            lam = 8.0 * beta
            eps = 1e-2
            plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD,
                                  np.zeros(sys.d_x))
            adv_sys_id(plant, eps, lam, k, kappa)
            G = QUAD.G
            bound = 8 * G * k * sys.d_u * (
                1e4 * eps**-2 * sys.d_u**4 * k**4 * lam ** (10 * k)
                * sys.d_x**2 * kappa) ** sys.d_u
            assert plant.total_cost <= bound

    def test_bound_holds_across_disturbance_variants(self):
        from blackbox_lds import (ClippedGaussianDisturbance, ReplayDisturbance,
                                  SinusoidalDisturbance)
        sys = LinearSystem([[0.5]], [[1.0]])
        variants = [
            SignAdversarialDisturbance(),
            ClippedGaussianDisturbance(1, scale=2.0, seed=7),
            SinusoidalDisturbance(1, omega=0.9),
            ReplayDisturbance([[1.0], [-1.0], [1.0], [-1.0]]),
        ]
        for dist in variants:
            plant = BlackBoxPlant(sys, dist, QUAD, [0.0])
            bundle = adv_sys_id(plant, 1e-3, 8.0, 1, 1.0)
            assert abs(bundle.A_hat[0, 0] - 0.5) <= 1e-3
            assert abs(bundle.B_hat[0, 0] - 1.0) <= 1e-3

    def test_noiseless_exactness_random(self, rng):
        for _ in range(10):
            sys, k, kappa, beta = random_controllable_system(rng)
            plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, np.zeros(sys.d_x))
            bundle = adv_sys_id(plant, 1e-4, 8.0 * beta, k, kappa)
            assert np.linalg.norm(bundle.A_hat - sys.A, 2) <= 1e-9
            assert np.linalg.norm(bundle.B_hat - sys.B, 2) <= 1e-8


def _closed_loop_error(A, B, K, rounds, seed=0):
    # ||[A_hat - A, B_hat - B]|| after `rounds` probing rounds on K, from the
    # origin, under the oblivious sinusoid that biases a least-squares fit
    sys = LinearSystem(A, B)
    plant = BlackBoxPlant(sys, SinusoidalDisturbance(sys.d_x, omega=0.2), QUAD,
                          np.zeros(sys.d_x))
    A_hat, B_hat = closed_loop_sys_id(plant, K, sys.d_x, rounds, seed)
    assert plant.log.phases == ["reidentify"] * rounds
    return np.linalg.norm(np.hstack([A_hat - sys.A, B_hat - sys.B]), 2)


class TestClosedLoopSysId:
    def test_error_falls_with_rounds(self):
        # 0.103, 0.034, 0.025 (slope -0.43); joint least squares on the same
        # rounds stays at 0.285, 0.275, 0.271 (slope -0.01)
        rounds = [1000, 10000, 30000]
        errs = [_closed_loop_error([[0.5, 0.2], [0.0, 0.3]], np.eye(2),
                                   np.zeros((2, 2)), n) for n in rounds]
        assert errs[0] > errs[1] > errs[2]
        slope = np.polyfit(np.log(rounds), np.log(errs), 1)[0]
        assert slope <= -0.3
        assert errs[-1] <= 0.05

    @pytest.mark.parametrize("A,B,K", [
        ([[0.5]], [[1.0]], [[-0.25]]),
        ([[0.5, 0.2], [0.0, 0.3]], np.eye(2), [[-0.2, -0.1], [0.0, -0.1]]),
    ])
    def test_stabilized_estimate(self, A, B, K):
        # 0.022 (scalar) and 0.035 (2-D) at 10^4 rounds. With K != 0 the
        # played u_t is not eta_t: correlating with u_t gives 0.40 / 0.38,
        # returning A + BK without the B_hat K correction 0.27 / 0.22, and
        # least squares 0.33 / 0.31
        assert _closed_loop_error(A, B, K, 10000) <= 0.08

    def test_needs_k_plus_one_rounds(self):
        plant = BlackBoxPlant(LinearSystem([[0.5]], [[1.0]]), ZeroDisturbance(),
                              QUAD, [0.0])
        with pytest.raises(ValueError, match="1 probing rounds cannot estimate 2"):
            closed_loop_sys_id(plant, [[0.0]], 1, 1, seed=0)
        assert plant.t == 1  # refused before a round is played

    def test_no_response_is_not_controllable(self):
        # B = 0 and no disturbance: every correlation block is exactly zero
        plant = BlackBoxPlant(LinearSystem([[0.5]], [[0.0]]), ZeroDisturbance(),
                              QUAD, [0.0])
        with pytest.raises(NotControllableError):
            closed_loop_sys_id(plant, [[0.0]], 1, 50, seed=0)
