import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blackbox_lds import (
    BlackBoxPlant,
    CostFunction,
    LinearSystem,
    SinusoidalDisturbance,
    ZeroDisturbance,
    best_dac_in_hindsight,
    certify_strong_stability,
    dac_control,
    estimate_disturbance,
    gpc_run,
    project_M,
    surrogate_cost,
    surrogate_gradient,
)
from blackbox_lds.nsc import DacParams, _project_blocks, dac_total_cost
from gpc_reference import (
    ref_best_dac_in_hindsight,
    ref_gpc_run,
    ref_project,
    ref_project_vectors,
)

QUAD = CostFunction.quadratic()


def _mimo_instance(rng, d_x, d_u):
    """A stable random plant, a gain, and estimates off by ~1e-2."""
    A = rng.normal(size=(d_x, d_x))
    A *= 0.6 / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(d_x, d_u))
    B /= np.linalg.norm(B, 2)
    K = 0.1 * rng.normal(size=(d_u, d_x))
    A_est = A + 1e-2 * rng.normal(size=A.shape)
    B_est = B + 1e-2 * rng.normal(size=B.shape)
    return LinearSystem(A, B), K, A_est, B_est


class TestDacControl:
    def test_zero_params_is_linear_feedback(self):
        M = DacParams.zeros(2, 1, 1)
        u = dac_control([[-0.5]], M, [2.0], np.array([[1.0], [1.0]]))
        assert u[0] == pytest.approx(-1.0)

    def test_pure_disturbance_feedthrough(self):
        M = DacParams(np.array([np.eye(2)]))
        u = dac_control(np.zeros((2, 2)), M, np.zeros(2),
                        np.array([[9.0, 9.0], [1.0, 2.0]]))
        assert np.allclose(u, [1.0, 2.0])

    def test_hand_sum(self):
        M = DacParams(np.array([[[0.1]], [[0.2]]]))
        u = dac_control([[-0.5]], M, [2.0], np.array([[1.0], [1.0]]))
        assert u[0] == pytest.approx(-0.7)


class TestEstimateDisturbance:
    def test_exact_model_recovers_noise(self, rng):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 1))
        x, u, w = rng.normal(size=2), rng.normal(size=1), rng.normal(size=2)
        x_next = A @ x + B @ u + w
        assert np.allclose(estimate_disturbance(A, B, x, u, x_next), w)

    def test_zero_residual(self):
        assert np.allclose(
            estimate_disturbance([[0.5]], [[1.0]], [2.0], [1.0], [2.0]), 0.0)

    def test_model_mismatch(self):
        w_hat = estimate_disturbance([[0.4]], [[1.0]], [1.0], [0.0], [0.5])
        assert w_hat[0] == pytest.approx(0.1)


class TestSurrogate:
    def test_zero_window_is_free(self):
        M = DacParams(np.array([[[0.3]]]))
        f = surrogate_cost(M, [[0.5]], [[1.0]], [[-0.2]], np.zeros((2, 1)), QUAD)
        assert f == 0.0

    def test_one_step_closed_form(self):
        # Atil = Btil = 0, K = 0, H = 1: f = ||w||^2 + ||M0 w||^2
        M = DacParams(np.array([[[0.3]]]))
        w = np.array([[2.0], [1.5]])
        f = surrogate_cost(M, [[0.0]], [[0.0]], [[0.0]], w, QUAD)
        assert f == pytest.approx(1.5**2 + (0.3 * 1.5) ** 2)
        g = surrogate_gradient(M, [[0.0]], [[0.0]], [[0.0]], w, QUAD)
        assert g[0, 0, 0] == pytest.approx(2 * 0.3 * 1.5 * 1.5)

    def test_matches_direct_simulation_for_stationary_window(self, rng):
        # M = 0, constant w, stabilizing K: the counterfactual equals the
        # closed loop rolled from zero for H steps under that w
        A = np.array([[0.5]])
        B = np.array([[1.0]])
        K = np.array([[-0.2]])
        H = 6
        w = np.full((2 * H, 1), 0.7)
        M = DacParams.zeros(H, 1, 1)
        f = surrogate_cost(M, A, B, K, w, QUAD)
        x = np.zeros(1)
        for _ in range(H):
            x = (A + B @ K) @ x + w[0]
        u = K @ x
        assert f == pytest.approx(float(x @ x + u @ u))

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            H = int(rng.integers(1, 5))
            d_u = int(rng.integers(1, 3))
            d_x = int(rng.integers(1, 3))
            A = 0.5 * rng.normal(size=(d_x, d_x))
            B = rng.normal(size=(d_x, d_u))
            K = 0.4 * rng.normal(size=(d_u, d_x))
            w = rng.normal(size=(2 * H, d_x))
            M = DacParams(0.4 * rng.normal(size=(H, d_u, d_x)))
            g = surrogate_gradient(M, A, B, K, w, QUAD)
            num = np.zeros_like(g)
            h = 1e-6
            for idx in np.ndindex(g.shape):
                Mp, Mm = M.M.copy(), M.M.copy()
                Mp[idx] += h
                Mm[idx] -= h
                num[idx] = (surrogate_cost(DacParams(Mp), A, B, K, w, QUAD)
                            - surrogate_cost(DacParams(Mm), A, B, K, w, QUAD)) / (2 * h)
            denom = max(np.linalg.norm(num), 1e-9)
            assert np.linalg.norm(g - num) / denom <= 1e-5

    def test_convexity_along_segments(self, rng):
        A = 0.5 * rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        K = 0.3 * rng.normal(size=(2, 2))
        H = 3
        w = rng.normal(size=(2 * H, 2))
        for _ in range(100):
            M1 = DacParams(rng.normal(size=(H, 2, 2)))
            M2 = DacParams(rng.normal(size=(H, 2, 2)))
            th = float(rng.uniform())
            mid = DacParams(th * M1.M + (1 - th) * M2.M)
            f_mid = surrogate_cost(mid, A, B, K, w, QUAD)
            bound = th * surrogate_cost(M1, A, B, K, w, QUAD) \
                + (1 - th) * surrogate_cost(M2, A, B, K, w, QUAD)
            assert f_mid <= bound + 1e-9


class TestProjectM:
    def test_within_bounds_unchanged(self):
        M = DacParams(np.array([[[0.1]], [[0.01]]]))
        out = project_M(M, 1.0, 0.5)
        assert np.array_equal(out.M, M.M)

    def test_scalar_clip(self):
        M = DacParams(np.array([[[3.0]]]))
        out = project_M(M, 0.5**0.25, 0.0)  # bound kappa^4 (1-gamma)^1 = 0.5
        assert out.M[0, 0, 0] == pytest.approx(0.5)

    def test_clips_only_large_singular_values(self):
        M = DacParams(np.array([np.diag([2.0, 0.1])]))
        out = project_M(M, 1.0, 0.0)
        assert np.allclose(np.diag(out.M[0]), [1.0, 0.1])

    def test_feasible_after_projection(self, rng):
        for _ in range(20):
            H = int(rng.integers(1, 5))
            M = DacParams(rng.normal(size=(H, 2, 3)) * 5)
            kappa, gamma = 1.2, 0.4
            out = project_M(M, kappa, gamma)
            assert out.max_violation(kappa, gamma) <= 1e-12

    @staticmethod
    def _check_against_reference(M, bounds):
        # matrix and 1x1 blocks: bit-exact against the per-block SVD
        # reference; 1xn and nx1 blocks (n >= 2): bit-exact against the
        # per-block closed form, and within 4 ulp of ||b|| of the SVD
        before = M.copy()
        out, over, norms = _project_blocks(M, bounds)
        ref, clipped = ref_project(M, bounds)
        svd_norms = np.array([np.linalg.norm(b, 2) for b in M])
        assert np.array_equal(M, before)  # input untouched
        assert np.array_equal(over, clipped)
        if min(M.shape[1:]) == 1 and max(M.shape[1:]) > 1:
            vec_out, vec_norms = ref_project_vectors(M, bounds)
            assert np.array_equal(out, vec_out)
            assert np.array_equal(norms, vec_norms)
            ulp = 4 * np.spacing(svd_norms)
            assert np.all(np.abs(norms - svd_norms) <= ulp)
            assert np.all(np.abs(out - ref) <= ulp[:, None, None])
        else:
            assert np.array_equal(out, ref)
            assert np.array_equal(norms, svd_norms)
        return over

    def test_batched_matches_per_block_reference(self, rng):
        for _ in range(200):
            H = int(rng.integers(1, 8))
            d_u = int(rng.integers(1, 4))
            d_x = int(rng.integers(1, 5))
            M = rng.normal(size=(H, d_u, d_x)) * rng.uniform(0.1, 3.0)
            bounds = rng.uniform(0.2, 2.0, size=H)
            self._check_against_reference(M, bounds)

    def test_edge_blocks(self):
        # d_u != d_x; block 0 exactly at its bound, block 1 all zero,
        # block 2 over its bound
        M = np.zeros((3, 2, 3))
        M[0] = [[0.5, 0.0, 0.0], [0.0, 0.1, 0.0]]
        M[2] = [[0.3, 0.0, 0.4], [0.0, 0.0, 0.0]]
        bounds = np.array([0.5, 0.25, 0.125])  # kappa = 1, gamma = 0.5
        over = self._check_against_reference(M, bounds)
        assert over.tolist() == [False, False, True]
        out = project_M(DacParams(M), 1.0, 0.5)
        assert np.array_equal(out.M[:2], M[:2])
        assert np.linalg.norm(out.M[2], 2) == pytest.approx(0.125, rel=1e-15)

    def test_single_block(self):
        for value, clipped in ((0.0, False), (0.5, False), (-0.75, True)):
            M = np.array([[[value]]])
            over = self._check_against_reference(M, np.array([0.5]))
            assert over.tolist() == [clipped]
        assert project_M(DacParams(np.array([[[-0.75]]])), 1.0, 0.5).M[0, 0, 0] == -0.5

    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=3, max_dims=3, max_side=5),
                      elements=st.floats(-1e200, 1e200)),
           st.floats(1e-100, 1e100))
    @settings(max_examples=200, deadline=None)
    def test_projection_properties(self, M, bound_scale):
        # any shape: blocks within their bound come back bit-identical, every
        # block ends within its bound up to rounding (a clipped one on it),
        # and the input is untouched. The rounding is 4 eps for the vector
        # closed form; the SVD round trip of a matrix block measures up to
        # (max(d_u, d_x) + 2) eps, so it gets 4 max(d_u, d_x) eps.
        bounds = bound_scale * 0.5 ** np.arange(len(M))
        before = M.copy()
        out, over, _ = _project_blocks(M, bounds)
        shape = M.shape[1:]
        tol = 4 * np.finfo(float).eps * (1 if min(shape) == 1 else max(shape))
        assert np.array_equal(M, before)
        assert np.array_equal(out[~over], M[~over])
        for b, bound, clipped in zip(out, bounds, over):
            norm = np.linalg.norm(b, 2)
            assert norm <= bound * (1 + tol)
            assert not clipped or norm >= bound * (1 - tol)

    def test_max_violation_matches_per_block_norms(self, rng):
        for _ in range(20):
            M = DacParams(rng.normal(size=(4, 2, 3)))
            bounds = M.block_bounds(1.1, 0.2)
            expected = max(np.linalg.norm(M.M[i], 2) - bounds[i] for i in range(4))
            assert M.max_violation(1.1, 0.2) == expected


class TestGpcRun:
    def test_zero_noise_fixed_point(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0])
        res = gpc_run(plant, [[-0.2]], 4.0, 0.5, 3, 0.05, 60,
                      sys.A, sys.B)
        assert res.total_cost == 0.0
        assert np.all(res.params.M == 0.0)
        log = plant.log
        assert np.all(log.states() == 0.0)
        assert np.all(log.controls() == 0.0)

    def test_zero_learning_rate_freezes_params(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1), QUAD, [0.3])
        res = gpc_run(plant, [[-0.2]], 4.0, 0.5, 3, 0.0, 40, sys.A, sys.B)
        assert np.all(res.params.M == 0.0)
        # equals the plain feedback simulation
        x = np.array([0.3])
        dist = SinusoidalDisturbance(1)
        expected = 0.0
        for t in range(1, 41):
            u = np.array([[-0.2]]) @ x
            expected += float(x @ x + u @ u)
            x = sys.A @ x + sys.B @ u + dist(t, x)
        assert res.total_cost == pytest.approx(expected)

    def test_feasibility_every_step(self, rng):
        sys = LinearSystem([[0.6]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.5), QUAD, [0.0])
        res = gpc_run(plant, [[-0.3]], 2.0, 0.3, 4, 0.05, 200,
                      sys.A, sys.B, record_params=True)
        kappa, gamma = 2.0, 0.3
        bounds = kappa**4 * (1 - gamma) ** np.arange(1, 5)
        for M in res.param_history:
            norms = [np.linalg.norm(M[i], 2) for i in range(4)]
            assert np.all(np.array(norms) <= bounds + 1e-12)
        assert res.max_constraint_violation <= 1e-12

    def test_exact_model_reproduces_disturbance(self):
        # dyadic instance: every product and sum is exact in binary, so the
        # estimate is bit-for-bit the applied disturbance
        sys = LinearSystem([[0.5]], [[1.0]])
        from blackbox_lds import ReplayDisturbance
        w_seq = np.array([[0.25], [-0.5], [0.125], [0.0], [0.0625]] * 10)
        plant = BlackBoxPlant(sys, ReplayDisturbance(w_seq), QUAD, [0.0])
        gpc_run(plant, [[-0.5]], 4.0, 0.5, 3, 0.0, 50, sys.A, sys.B)
        log = plant.log
        states = list(log.states()) + [plant.state]
        for i, r in enumerate(log.records):
            w_hat = estimate_disturbance(sys.A, sys.B, r.x, r.u, states[i + 1])
            assert np.array_equal(w_hat, r.w)

    def test_exact_model_disturbance_within_rounding(self):
        # generic instance: with exact estimates the deviation is at most the
        # forward addition's rounding
        sys = LinearSystem([[0.5]], [[1.0]])
        dist = SinusoidalDisturbance(1, omega=0.3)
        plant = BlackBoxPlant(sys, dist, QUAD, [0.0])
        gpc_run(plant, [[-0.2]], 4.0, 0.5, 3, 0.02, 50, sys.A, sys.B)
        log = plant.log
        states = list(log.states()) + [plant.state]
        for i, r in enumerate(log.records):
            w_hat = estimate_disturbance(sys.A, sys.B, r.x, r.u, states[i + 1])
            scale = max(np.abs(states[i + 1]).max(), 1.0)
            assert np.abs(w_hat - r.w).max() <= 4 * np.finfo(float).eps * scale


    @pytest.mark.parametrize("H", [1, 2, 7])
    def test_matches_reference_loop(self, rng, H):
        # random MIMO plants with model mismatch and bounds tight enough that
        # the projection is active in some rounds and not in others
        T = 150
        checked_active = 0
        for d_x, d_u in ((3, 2), (2, 3), (2, 2), (1, 1), (3, 1), (1, 2)):
            sys, K, A_est, B_est = _mimo_instance(rng, d_x, d_u)
            kappa, gamma, eta = 0.8, 0.3, 0.2
            x1 = rng.normal(size=d_x)

            def plant():
                return BlackBoxPlant(sys, SinusoidalDisturbance(d_x, omega=0.3),
                                     QUAD, x1, seed=0)

            res = gpc_run(plant(), K, kappa, gamma, H, eta, T, A_est, B_est,
                          record_params=True)
            total, history, active = ref_gpc_run(plant(), K, kappa, gamma, H,
                                                  eta, T, A_est, B_est)
            assert res.total_cost == pytest.approx(total, rel=1e-12, abs=0.0)
            assert len(res.param_history) == T
            for M_new, M_ref in zip(res.param_history, history):
                assert np.linalg.norm(M_new - M_ref) <= 1e-12 * np.linalg.norm(M_ref)
            assert res.projection_active_rounds == active
            checked_active += 0 < active < T
        assert checked_active > 0

    def test_projection_active_rounds_extremes(self):
        sys = LinearSystem([[0.5]], [[1.0]])

        def run(kappa, eta):
            plant = BlackBoxPlant(sys, SinusoidalDisturbance(1), QUAD, [0.3])
            return gpc_run(plant, [[-0.2]], kappa, 0.5, 3, eta, 40,
                           sys.A, sys.B).projection_active_rounds

        assert run(4.0, 0.0) == 0  # no step, nothing to project
        assert run(100.0, 0.05) == 0  # bounds far beyond any reachable M
        assert run(0.1, 10.0) == 40  # tiny bounds, huge steps: every round

    def test_sublinear_regret_trend(self):
        # scalar benchmark: regret against the best DAC in hindsight grows
        # with fitted exponent well below 2/3 + 0.15
        sys = LinearSystem([[0.5]], [[1.0]])
        K = np.array([[-0.25]])
        cert = certify_strong_stability(sys, K)
        kappa_star = 4.0 * cert.kappa**2
        regrets = {}
        for T in (500, 2000, 8000):
            H = int(np.ceil(np.log(kappa_star**2 * T) / cert.gamma))
            eta = 1.0 / (QUAD.G * 1.0 * np.sqrt(T))
            plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.2),
                                  QUAD, [0.0], seed=0)
            res = gpc_run(plant, K, kappa_star, cert.gamma, H, eta, T,
                          sys.A, sys.B)
            comp = best_dac_in_hindsight(sys, plant.disturbance_history(), QUAD,
                                         K, H, kappa_star, cert.gamma, [0.0],
                                         iters=80)
            regrets[T] = res.total_cost - comp.cost
            assert regrets[T] >= -1e-6
        Ts = sorted(regrets)
        xs = [math.log(t) for t in Ts]
        ys = [math.log(regrets[t]) for t in Ts]
        n = len(xs)
        slope = (n * sum(a * b for a, b in zip(xs, ys)) - sum(xs) * sum(ys)) \
            / (n * sum(a * a for a in xs) - sum(xs) ** 2)
        assert slope <= 2.0 / 3.0 + 0.15


class TestBestDacInHindsight:
    def test_trajectory_matches_independent_simulation(self, rng):
        # dac_total_cost must agree with simulate() driving the same fixed-M
        # policy from a replayed disturbance sequence
        from blackbox_lds import LinearSystem, ReplayDisturbance, simulate
        sys = LinearSystem(rng.normal(size=(2, 2)) * 0.4, rng.normal(size=(2, 2)))
        K = 0.3 * rng.normal(size=(2, 2))
        H, T = 3, 40
        M = 0.4 * rng.normal(size=(H, 2, 2))
        w_seq = rng.uniform(-0.4, 0.4, size=(T, 2))
        x1 = rng.normal(size=2)

        w_hist = np.zeros((H + T, 2))
        w_hist[H:] = w_seq  # w_hist[H + t - 1] = w_t, zeros before round 1

        def dac_policy(t, x):
            window_desc = w_hist[H + t - 2:: -1][:H]  # w_{t-1}, ..., w_{t-H}
            return K @ x + np.einsum("hux,hx->u", M, window_desc)

        log = simulate(sys, dac_policy, ReplayDisturbance(w_seq), QUAD, T, x1)
        expected = dac_total_cost(sys, K, M, w_seq, QUAD, x1)
        assert log.cumulative_cost == pytest.approx(expected, rel=1e-12)

    def test_zero_noise_zero_cost(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        res = best_dac_in_hindsight(sys, np.zeros((20, 1)), QUAD, [[-0.2]],
                                    3, 4.0, 0.5, [0.0])
        assert res.cost == 0.0

    def test_matches_golden_section_scalar(self):
        # H = 1 scalar problem: 1-d convex optimization cross-check
        sys = LinearSystem([[0.5]], [[1.0]])
        K = np.array([[-0.3]])
        T = 60
        w = np.full((T, 1), 0.8)
        res = best_dac_in_hindsight(sys, w, QUAD, K, 1, 10.0, 0.01, [0.0],
                                    iters=300)

        def J(m):
            return dac_total_cost(sys, K, np.array([[[m]]]), w, QUAD, [0.0])

        lo, hi = -5.0, 5.0
        phi = (math.sqrt(5) - 1) / 2
        c1, c2 = hi - phi * (hi - lo), lo + phi * (hi - lo)
        for _ in range(120):
            if J(c1) < J(c2):
                hi, c2 = c2, c1
                c1 = hi - phi * (hi - lo)
            else:
                lo, c1 = c1, c2
                c2 = lo + phi * (hi - lo)
        assert res.cost == pytest.approx(J(0.5 * (lo + hi)), abs=1e-6)

    def test_beats_zero_and_random_feasible(self, rng):
        sys = LinearSystem([[0.6]], [[1.0]])
        K = np.array([[-0.4]])
        T, H = 80, 3
        w = rng.uniform(-0.6, 0.6, size=(T, 1))
        kappa, gamma = 2.0, 0.3
        res = best_dac_in_hindsight(sys, w, QUAD, K, H, kappa, gamma, [0.0],
                                    iters=150)
        assert res.cost <= dac_total_cost(sys, K, np.zeros((H, 1, 1)), w,
                                          QUAD, [0.0]) + 1e-9
        bounds = kappa**4 * (1 - gamma) ** np.arange(1, H + 1)
        for _ in range(50):
            M = rng.normal(size=(H, 1, 1))
            M = np.clip(M, -bounds[:, None, None], bounds[:, None, None])
            assert res.cost <= dac_total_cost(sys, K, M, w, QUAD, [0.0]) + 1e-9


def _assert_same_hindsight(new, ref):
    assert np.array_equal(new.params.M, ref.params.M)
    assert new.cost == ref.cost
    assert new.grad_norm == ref.grad_norm
    assert new.iterations == ref.iterations
    assert new.converged == ref.converged


class TestComparatorAgainstReference:
    """best_dac_in_hindsight reuses the accepted trajectory for its gradient;
    the reference (tests/gpc_reference.py) rolls it out a second time. The
    arithmetic is the same, so every result field must be bit-identical."""

    def test_criterion_08_instance(self, monkeypatch):
        from blackbox_lds import PriorBounds, pipeline, run_pipeline
        calls = []
        comparator = pipeline.best_dac_in_hindsight

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return comparator(*args, **kwargs)

        monkeypatch.setattr(pipeline, "best_dac_in_hindsight", spy)
        plant = BlackBoxPlant(LinearSystem([[0.5]], [[1.0]]),
                              SinusoidalDisturbance(1, omega=0.2), QUAD, [0.0],
                              seed=1)
        report = run_pipeline(plant, PriorBounds(1, 1.0, 1.0), 2000,
                              overrides={"eps": 1e-3},
                              use_certified_stability=True, comparator_iters=60,
                              seed=1)
        (args, kwargs), = calls
        ref = ref_best_dac_in_hindsight(*args, **kwargs)
        assert ref.iterations > 1
        _assert_same_hindsight(report.comparator, ref)

    def test_mimo(self, rng):
        sys, K, _, _ = _mimo_instance(rng, 3, 2)
        w = rng.uniform(-0.5, 0.5, size=(150, 3))
        x1 = rng.normal(size=3)
        args = (sys, w, QUAD, K, 4, 2.0, 0.3, x1)
        ref = ref_best_dac_in_hindsight(*args, iters=40)
        assert ref.iterations > 1
        _assert_same_hindsight(best_dac_in_hindsight(*args, iters=40), ref)

    def test_per_round_cost_list(self, rng):
        # a list of costs has no batch callbacks: the per-round loop path
        sys, K, _, _ = _mimo_instance(rng, 2, 2)
        T = 120
        costs = [CostFunction.weighted_quadratic(
            np.diag(rng.uniform(0.5, 2.0, size=2)), np.eye(2) * (1 + t % 3))
            for t in range(T)]
        w = rng.uniform(-0.5, 0.5, size=(T, 2))
        args = (sys, w, costs, K, 3, 2.0, 0.3, np.ones(2))
        ref = ref_best_dac_in_hindsight(*args, iters=30)
        assert ref.iterations > 1
        _assert_same_hindsight(best_dac_in_hindsight(*args, iters=30), ref)
