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
    gpc_run,
    nsc,
)
from blackbox_lds.errors import ConfigError, DimensionMismatchError
from blackbox_lds.nsc import (
    _block_bounds,
    _block_norms,
    _dac_gradient,
    _dac_trajectory,
    _estimate_disturbance,
    _project_blocks,
    dac_total_cost,
)
from gpc_reference import (
    core_surrogate,
    ref_best_dac_in_hindsight,
    ref_dac_cost_and_gradient,
    ref_dac_trajectory,
    ref_gpc_run,
    ref_project,
    ref_project_vectors,
    ref_surrogate_gradient,
    surrogate_cost,
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


@pytest.fixture
def projected(monkeypatch):
    """Every M that nsc._project_blocks returns, in call order: gpc_run's
    M after each round's step."""
    Ms = []
    project = nsc._project_blocks

    def spy(M, bounds):
        out = project(M, bounds)
        Ms.append(out[0].copy())
        return out

    monkeypatch.setattr(nsc, "_project_blocks", spy)
    return Ms


def _control(K, M, x, recent):
    """gpc_run's control K x + offsets[H], with the disturbances `recent`
    (most recent last) as the newest rows of the 2H-row window."""
    H, d_u, d_x = M.shape
    window = np.zeros((2 * H, d_x))
    window[2 * H - len(recent):] = recent
    offsets, _ = core_surrogate(M, np.zeros((d_x, d_x)), np.zeros((d_x, d_u)),
                                K, window, QUAD)
    return K @ x + offsets[H]


class TestDacControl:
    def test_zero_params_is_linear_feedback(self):
        u = _control(np.array([[-0.5]]), np.zeros((2, 1, 1)), np.array([2.0]),
                     np.array([[1.0], [1.0]]))
        assert u[0] == pytest.approx(-1.0)

    def test_pure_disturbance_feedthrough(self):
        u = _control(np.zeros((2, 2)), np.array([np.eye(2)]), np.zeros(2),
                     np.array([[9.0, 9.0], [1.0, 2.0]]))
        assert np.allclose(u, [1.0, 2.0])

    def test_hand_sum(self):
        u = _control(np.array([[-0.5]]), np.array([[[0.1]], [[0.2]]]),
                     np.array([2.0]), np.array([[1.0], [1.0]]))
        assert u[0] == pytest.approx(-0.7)


class TestEstimateDisturbance:
    def test_exact_model_recovers_noise(self, rng):
        A = rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 1))
        x, u, w = rng.normal(size=2), rng.normal(size=1), rng.normal(size=2)
        x_next = A @ x + B @ u + w
        assert np.allclose(_estimate_disturbance(A, B, x, u, x_next), w)

    def test_zero_residual(self):
        w_hat = _estimate_disturbance(np.array([[0.5]]), np.array([[1.0]]),
                                      np.array([2.0]), np.array([1.0]),
                                      np.array([2.0]))
        assert np.allclose(w_hat, 0.0)

    def test_model_mismatch(self):
        w_hat = _estimate_disturbance(np.array([[0.4]]), np.array([[1.0]]),
                                      np.array([1.0]), np.array([0.0]),
                                      np.array([0.5]))
        assert w_hat[0] == pytest.approx(0.1)


class TestSurrogate:
    """The cores gpc_run runs (through core_surrogate) against the
    step-by-step surrogate_cost of tests/gpc_reference.py."""

    def test_zero_window_is_free(self):
        M = np.array([[[0.3]]])
        f = surrogate_cost(M, [[0.5]], [[1.0]], [[-0.2]], np.zeros((2, 1)), QUAD)
        assert f == 0.0

    def test_one_step_closed_form(self):
        # Atil = Btil = 0, K = 0, H = 1: f = ||w||^2 + ||M0 w||^2
        M = np.array([[[0.3]]])
        w = np.array([[2.0], [1.5]])
        zero = np.zeros((1, 1))
        f = surrogate_cost(M, zero, zero, zero, w, QUAD)
        assert f == pytest.approx(1.5**2 + (0.3 * 1.5) ** 2)
        _, g = core_surrogate(M, zero, zero, zero, w, QUAD)
        assert g[0, 0, 0] == pytest.approx(2 * 0.3 * 1.5 * 1.5)

    def test_matches_direct_simulation_for_stationary_window(self, rng):
        # M = 0, constant w, stabilizing K: the counterfactual equals the
        # closed loop rolled from zero for H steps under that w
        A = np.array([[0.5]])
        B = np.array([[1.0]])
        K = np.array([[-0.2]])
        H = 6
        w = np.full((2 * H, 1), 0.7)
        f = surrogate_cost(np.zeros((H, 1, 1)), A, B, K, w, QUAD)
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
            M = 0.4 * rng.normal(size=(H, d_u, d_x))
            _, g = core_surrogate(M, A, B, K, w, QUAD)
            num = np.zeros_like(g)
            h = 1e-6
            for idx in np.ndindex(g.shape):
                Mp, Mm = M.copy(), M.copy()
                Mp[idx] += h
                Mm[idx] -= h
                num[idx] = (surrogate_cost(Mp, A, B, K, w, QUAD)
                            - surrogate_cost(Mm, A, B, K, w, QUAD)) / (2 * h)
            denom = max(np.linalg.norm(num), 1e-9)
            assert np.linalg.norm(g - num) / denom <= 1e-5

    def test_convexity_along_segments(self, rng):
        # f below its chords, and above its tangent planes through the
        # gradient the loop takes
        A = 0.5 * rng.normal(size=(2, 2))
        B = rng.normal(size=(2, 2))
        K = 0.3 * rng.normal(size=(2, 2))
        H = 3
        w = rng.normal(size=(2 * H, 2))
        for _ in range(100):
            M1 = rng.normal(size=(H, 2, 2))
            M2 = rng.normal(size=(H, 2, 2))
            th = float(rng.uniform())
            f1 = surrogate_cost(M1, A, B, K, w, QUAD)
            f2 = surrogate_cost(M2, A, B, K, w, QUAD)
            f_mid = surrogate_cost(th * M1 + (1 - th) * M2, A, B, K, w, QUAD)
            assert f_mid <= th * f1 + (1 - th) * f2 + 1e-9
            _, g1 = core_surrogate(M1, A, B, K, w, QUAD)
            assert f2 >= f1 + float(np.sum(g1 * (M2 - M1))) - 1e-9 * max(f1, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(d_x=st.integers(1, 4), d_u=st.integers(1, 4), H=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_cores_match_step_by_step(self, d_x, d_u, H, seed):
        # the loop's offsets and gradient against the per-step DAC sum and
        # the reverse accumulation of ref_surrogate_gradient, d_u > d_x too
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(d_x, d_x))
        A *= 0.9 / max(max(abs(np.linalg.eigvals(A))), 1e-3)
        B = rng.normal(size=(d_x, d_u))
        K = 0.3 * rng.normal(size=(d_u, d_x))
        M = 0.5 * rng.normal(size=(H, d_u, d_x))
        w = rng.normal(size=(2 * H, d_x))
        offsets, g = core_surrogate(M, A, B, K, w, QUAD)
        now = sum(M[i - 1] @ w[2 * H - i] for i in range(1, H + 1))
        assert np.allclose(offsets[H], now, rtol=1e-12, atol=1e-12)
        ref = ref_surrogate_gradient(M, A, B, K, w, QUAD)
        assert g.shape == ref.shape == M.shape
        assert np.linalg.norm(g - ref) <= 1e-12 * max(np.linalg.norm(ref), 1.0)


def _project(M, kappa, gamma):
    """gpc_run's projection of M onto the blocks' bounds for (kappa, gamma)."""
    return _project_blocks(M, _block_bounds(len(M), kappa, gamma))[0]


class TestProjectM:
    """The per-block projection `_project_blocks` with the bounds of
    `_block_bounds`, the pair both loops run."""

    def test_within_bounds_unchanged(self):
        M = np.array([[[0.1]], [[0.01]]])
        assert np.array_equal(_project(M, 1.0, 0.5), M)

    def test_scalar_clip(self):
        # bound kappa^4 (1-gamma)^1 = 0.5
        out = _project(np.array([[[3.0]]]), 0.5**0.25, 0.0)
        assert out[0, 0, 0] == pytest.approx(0.5)

    def test_clips_only_large_singular_values(self):
        out = _project(np.array([np.diag([2.0, 0.1])]), 1.0, 0.0)
        assert np.allclose(np.diag(out[0]), [1.0, 0.1])

    def test_feasible_after_projection(self, rng):
        for _ in range(20):
            H = int(rng.integers(1, 5))
            M = rng.normal(size=(H, 2, 3)) * 5
            kappa, gamma = 1.2, 0.4
            out = _project(M, kappa, gamma)
            bounds = _block_bounds(H, kappa, gamma)
            assert np.max(_block_norms(out) - bounds) <= 1e-12
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
        out = _project(M, 1.0, 0.5)
        assert np.array_equal(out[:2], M[:2])
        assert np.linalg.norm(out[2], 2) == pytest.approx(0.125, rel=1e-15)

    def test_single_block(self):
        for value, clipped in ((0.0, False), (0.5, False), (-0.75, True)):
            M = np.array([[[value]]])
            over = self._check_against_reference(M, np.array([0.5]))
            assert over.tolist() == [clipped]
        assert _project(np.array([[[-0.75]]]), 1.0, 0.5)[0, 0, 0] == -0.5

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
        # the violation gpc_run reports, against per-block spectral norms
        for _ in range(20):
            M = rng.normal(size=(4, 2, 3))
            bounds = _block_bounds(4, 1.1, 0.2)
            expected = max(np.linalg.norm(M[i], 2) - bounds[i] for i in range(4))
            assert float((_block_norms(M) - bounds).max()) == expected


class TestConstraintConstants:
    """kappa and gamma must give block bounds that are finite numbers >= 0,
    and eta must be finite and >= 0: anything else is refused by name before
    a round is played, instead of running the loops unconstrained."""

    BAD = [(math.nan, 0.3, "kappa"), (math.inf, 0.3, "kappa"),
           (1e100, 0.3, "kappa"), (2.0, math.nan, "gamma"),
           (2.0, 1.5, "gamma"), (2.0, -math.inf, "gamma")]
    SYS = LinearSystem([[0.6]], [[1.0]])

    def _plant(self):
        return BlackBoxPlant(self.SYS, SinusoidalDisturbance(1), QUAD, [0.0])

    @pytest.mark.parametrize("kappa, gamma, name", BAD)
    def test_gpc_run_refuses_bounds(self, kappa, gamma, name):
        plant = self._plant()
        with pytest.raises(ConfigError) as err:
            gpc_run(plant, [[-0.3]], kappa, gamma, 3, 0.5, 50,
                    self.SYS.A, self.SYS.B)
        assert err.value.path == name
        assert plant.t == 1  # no round played

    @pytest.mark.parametrize("kappa, gamma, name", BAD)
    def test_comparator_refuses_bounds(self, kappa, gamma, name):
        with pytest.raises(ConfigError) as err:
            best_dac_in_hindsight(self.SYS, np.full((50, 1), 0.5), QUAD,
                                  [[-0.3]], 3, kappa, gamma, [0.0])
        assert err.value.path == name

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -0.1])
    def test_gpc_run_refuses_eta(self, eta):
        plant = self._plant()
        with pytest.raises(ConfigError) as err:
            gpc_run(plant, [[-0.3]], 2.0, 0.3, 3, eta, 50,
                    self.SYS.A, self.SYS.B)
        assert err.value.path == "eta"
        assert plant.t == 1

    def test_edge_bounds_accepted(self):
        # gamma = 1 pins every block at zero; gamma = 0 gives kappa^4 each
        assert np.array_equal(_block_bounds(3, 2.0, 1.0), np.zeros(3))
        assert np.array_equal(_block_bounds(2, 2.0, 0.0), [16.0, 16.0])
        plant = self._plant()
        res = gpc_run(plant, [[-0.3]], 2.0, 1.0, 3, 0.5, 20,
                      self.SYS.A, self.SYS.B)
        assert np.all(res.M == 0.0)
        assert res.max_constraint_violation == 0.0


class TestGpcRun:
    def test_zero_noise_fixed_point(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0])
        res = gpc_run(plant, [[-0.2]], 4.0, 0.5, 3, 0.05, 60,
                      sys.A, sys.B)
        assert res.total_cost == 0.0
        assert np.all(res.M == 0.0)
        log = plant.log
        assert np.all(log.states() == 0.0)
        assert np.all(log.controls() == 0.0)

    def test_zero_learning_rate_freezes_params(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1), QUAD, [0.3])
        res = gpc_run(plant, [[-0.2]], 4.0, 0.5, 3, 0.0, 40, sys.A, sys.B)
        assert np.all(res.M == 0.0)
        # equals the plain feedback simulation
        x = np.array([0.3])
        dist = SinusoidalDisturbance(1)
        expected = 0.0
        for t in range(1, 41):
            u = np.array([[-0.2]]) @ x
            expected += float(x @ x + u @ u)
            x = sys.A @ x + sys.B @ u + dist(t, x)
        assert res.total_cost == pytest.approx(expected)

    def test_feasibility_every_step(self, rng, projected):
        sys = LinearSystem([[0.6]], [[1.0]])
        plant = BlackBoxPlant(sys, SinusoidalDisturbance(1, omega=0.5), QUAD, [0.0])
        res = gpc_run(plant, [[-0.3]], 2.0, 0.3, 4, 0.05, 200,
                      sys.A, sys.B)
        kappa, gamma = 2.0, 0.3
        bounds = kappa**4 * (1 - gamma) ** np.arange(1, 5)
        assert len(projected) == 200
        for M in projected:
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
        for i, (u, w) in enumerate(zip(log.controls(), log.disturbances())):
            w_hat = _estimate_disturbance(sys.A, sys.B, states[i], u, states[i + 1])
            assert np.array_equal(w_hat, w)

    def test_exact_model_disturbance_within_rounding(self):
        # generic instance: with exact estimates the deviation is at most the
        # forward addition's rounding
        sys = LinearSystem([[0.5]], [[1.0]])
        dist = SinusoidalDisturbance(1, omega=0.3)
        plant = BlackBoxPlant(sys, dist, QUAD, [0.0])
        gpc_run(plant, [[-0.2]], 4.0, 0.5, 3, 0.02, 50, sys.A, sys.B)
        log = plant.log
        states = list(log.states()) + [plant.state]
        for i, (u, w) in enumerate(zip(log.controls(), log.disturbances())):
            w_hat = _estimate_disturbance(sys.A, sys.B, states[i], u, states[i + 1])
            scale = max(np.abs(states[i + 1]).max(), 1.0)
            assert np.abs(w_hat - w).max() <= 4 * np.finfo(float).eps * scale


    @pytest.mark.parametrize("H", [1, 2, 7])
    def test_matches_reference_loop(self, rng, H, projected):
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

            projected.clear()
            res = gpc_run(plant(), K, kappa, gamma, H, eta, T, A_est, B_est)
            total, history, active = ref_gpc_run(plant(), K, kappa, gamma, H,
                                                  eta, T, A_est, B_est)
            assert res.total_cost == pytest.approx(total, rel=1e-12, abs=0.0)
            assert len(projected) == T
            assert np.array_equal(res.M, projected[-1])
            for M_new, M_ref in zip(projected, history):
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
    assert np.array_equal(new.M, ref.M)
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
        sys, K, _, _ = _mimo_instance(rng, 2, 2)
        T = 120
        costs = _per_round_costs(rng, T, 2, 2)
        w = rng.uniform(-0.5, 0.5, size=(T, 2))
        args = (sys, w, costs, K, 3, 2.0, 0.3, np.ones(2))
        ref = ref_best_dac_in_hindsight(*args, iters=30)
        assert ref.iterations > 1
        _assert_same_hindsight(best_dac_in_hindsight(*args, iters=30), ref)


def _per_round_costs(rng, T, d_x, d_u):
    # a list of costs has no batch callbacks: the per-round loop path
    return [CostFunction.weighted_quadratic(
        np.diag(rng.uniform(0.5, 2.0, size=d_x)), np.eye(d_u) * (1 + t % 3))
        for t in range(T)]


def _assert_loops_match_reference(sys, K, M, w, costs, x1):
    trajectory = _dac_trajectory(sys, K, M, w, x1)
    for got, want in zip(trajectory, ref_dac_trajectory(sys, K, M, w, x1)):
        assert np.array_equal(got, want)
    cost, grad = ref_dac_cost_and_gradient(sys, K, M, w, costs, x1)
    assert np.array_equal(_dac_gradient(sys, K, trajectory, costs), grad)
    assert dac_total_cost(sys, K, M, w, costs, x1) == cost


LOOP_SHAPES = [(1, 1), (3, 2), (2, 3), (4, 1), (1, 3), (8, 3), (16, 4), (20, 5)]


class TestComparatorLoopsAgainstReference:
    """The comparator's forward rollout and adjoint pass take the products
    that do not depend on the previous step out of their loops; the
    reference (tests/gpc_reference.py) steps them one by one. Each add
    happens in the same order, so states, controls, cost and gradient must
    be bit-identical."""

    @pytest.mark.parametrize("T", [1, 2, 3, 777])
    @pytest.mark.parametrize("d_x, d_u", LOOP_SHAPES)
    def test_quadratic(self, d_x, d_u, T):
        rng = np.random.default_rng([d_x, d_u, T])
        sys, K, _, _ = _mimo_instance(rng, d_x, d_u)
        M = 0.3 * rng.normal(size=(3, d_u, d_x))
        w = rng.uniform(-0.5, 0.5, size=(T, d_x))
        _assert_loops_match_reference(sys, K, M, w, QUAD, rng.normal(size=d_x))

    @pytest.mark.parametrize("d_x, d_u", [(1, 1), (3, 2), (2, 3)])
    def test_per_round_cost_list(self, d_x, d_u):
        rng = np.random.default_rng([d_x, d_u])
        sys, K, _, _ = _mimo_instance(rng, d_x, d_u)
        T = 60
        M = 0.3 * rng.normal(size=(4, d_u, d_x))
        w = rng.uniform(-0.5, 0.5, size=(T, d_x))
        _assert_loops_match_reference(sys, K, M, w,
                                      _per_round_costs(rng, T, d_x, d_u),
                                      rng.normal(size=d_x))

    @settings(max_examples=60, deadline=None)
    @given(d_x=st.integers(1, 6), d_u=st.integers(1, 6), T=st.integers(1, 80),
           H=st.integers(1, 5), radius=st.floats(0.05, 1.2),
           seed=st.integers(0, 2**32 - 1))
    def test_property(self, d_x, d_u, T, H, radius, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(d_x, d_x))
        A *= radius / max(max(abs(np.linalg.eigvals(A))), 1e-3)
        sys = LinearSystem(A, rng.normal(size=(d_x, d_u)))
        K = 0.2 * rng.normal(size=(d_u, d_x))
        M = rng.normal(size=(H, d_u, d_x))
        w = rng.uniform(-1.0, 1.0, size=(T, d_x))
        _assert_loops_match_reference(sys, K, M, w, QUAD, rng.normal(size=d_x))


class TestComparatorInputs:
    """w_seq must be (T >= 1, d_x) and x1 (d_x,): anything else is refused
    by name instead of failing inside numpy or being broadcast."""

    SYS = LinearSystem(0.5 * np.eye(2), np.eye(2))
    K = -0.1 * np.eye(2)

    @pytest.mark.parametrize("w_seq, x1", [
        (np.zeros((0, 2)), np.ones(2)),
        (np.zeros(5), np.ones(2)),
        (np.zeros((5, 3)), np.ones(2)),
        (np.zeros((5, 1)), np.ones(2)),
        (np.zeros((5, 2)), 1.0),
        (np.zeros((5, 2)), np.ones(3)),
        (np.zeros((5, 2)), np.ones((1, 2))),
    ], ids=["empty", "1-D", "too wide", "too narrow", "scalar x1",
            "long x1", "2-D x1"])
    def test_refused(self, w_seq, x1):
        with pytest.raises(DimensionMismatchError):
            dac_total_cost(self.SYS, self.K, np.zeros((2, 2, 2)), w_seq, QUAD, x1)
        with pytest.raises(DimensionMismatchError):
            best_dac_in_hindsight(self.SYS, w_seq, QUAD, self.K, 2, 2.0, 0.3, x1)
