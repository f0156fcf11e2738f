import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blackbox_lds import (
    ClippedGaussianDisturbance,
    CostFunction,
    LinearSystem,
    PriorBounds,
    ReplayDisturbance,
    SignAdversarialDisturbance,
    SinusoidalDisturbance,
    ZeroDisturbance,
    certify_strong_stability,
    controllability_matrix,
    min_energy_controls,
    simulate,
    step,
    strong_controllability_check,
)
from blackbox_lds import lds
from blackbox_lds.errors import (
    CertificateError,
    DimensionMismatchError,
    NonFiniteValueError,
    NotControllableError,
)
from blackbox_lds.lds import _lyapunov
from conftest import random_controllable_system


class TestStep:
    def test_zero_dynamics_kills_state(self):
        sys = LinearSystem(np.zeros((2, 2)), np.eye(2))
        assert np.array_equal(step(sys, [1, 0], [0, 1], [0, 0]), [0.0, 1.0])

    def test_identity_dynamics(self):
        sys = LinearSystem(np.eye(2), np.zeros((2, 1)))
        out = step(sys, [1, 2], [3.0], [0.1, -0.1])
        assert np.allclose(out, [1.1, 1.9])

    def test_hand_product(self):
        sys = LinearSystem([[0.5, 1], [0, 0.5]], [[1], [0]])
        assert np.allclose(step(sys, [1, 1], [2], [0, 0]), [3.5, 0.5])

    def test_dimension_error_names_operand(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        with pytest.raises(DimensionMismatchError, match="control"):
            step(sys, [1.0], [1.0, 2.0], [0.0])
        with pytest.raises(DimensionMismatchError, match="disturbance"):
            step(sys, [1.0], [1.0], [0.0, 0.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        d_x, d_u = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        sys = LinearSystem(rng.normal(size=(d_x, d_x)), rng.normal(size=(d_x, d_u)))
        x, u, w = rng.normal(size=d_x), rng.normal(size=d_u), rng.normal(size=d_x)
        expected = sys.A @ x + sys.B @ u + w
        assert np.allclose(step(sys, x, u, w), expected)


class TestSimulate:
    def test_geometric_decay(self):
        sys = LinearSystem([[0.5]], [[0.0]])
        log = simulate(sys, lambda t, x: np.zeros(1), ZeroDisturbance(),
                       CostFunction.quadratic(), 3, [1.0])
        assert list(log.states()[:, 0]) == [1.0, 0.5, 0.25]

    def test_single_round(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        log = simulate(sys, lambda t, x: np.zeros(1), ZeroDisturbance(),
                       CostFunction.quadratic(), 1, [1.0])
        assert len(log) == 1

    def test_constant_state_cumulative_cost(self):
        sys = LinearSystem([[1.0]], [[1.0]])
        log = simulate(sys, lambda t, x: np.zeros(1), ZeroDisturbance(),
                       CostFunction.quadratic(), 4, [1.0])
        assert log.cumulative_cost == pytest.approx(4.0)

    def test_nonfinite_control_aborts_with_index(self):
        sys = LinearSystem([[1.0]], [[1.0]])
        with pytest.raises(NonFiniteValueError) as err:
            simulate(sys, lambda t, x: np.array([np.nan]), ZeroDisturbance(),
                     CostFunction.quadratic(), 5, [1.0])
        assert err.value.step == 1

    def test_replay_consistency(self, rng):
        # every logged transition replays exactly under step()
        sys = LinearSystem(rng.normal(size=(3, 3)) * 0.4, rng.normal(size=(3, 2)))
        dist = ClippedGaussianDisturbance(3, seed=5)
        log = simulate(sys, lambda t, x: -0.1 * x[:2], dist,
                       CostFunction.quadratic(), 40, rng.normal(size=3))
        X, U, W = log.states(), log.controls(), log.disturbances()
        for t in range(len(log) - 1):
            assert np.array_equal(step(sys, X[t], U[t], W[t]), X[t + 1])
        assert log.cumulative_cost == pytest.approx(sum(log.costs()))


class TestControllability:
    def test_scalar_matrix(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        assert np.allclose(controllability_matrix(sys, 2), [[1.0, 0.5]])

    def test_identity_input(self, rng):
        sys = LinearSystem(rng.normal(size=(2, 2)), np.eye(2))
        assert np.array_equal(controllability_matrix(sys, 1), np.eye(2))

    def test_nilpotent(self):
        sys = LinearSystem([[0, 1], [0, 0]], [[0], [1]])
        assert np.allclose(controllability_matrix(sys, 2), [[0, 1], [1, 0]])

    def test_check_scalar(self):
        ok, kappa = strong_controllability_check(LinearSystem([[0.5]], [[1.0]]), 1)
        assert ok and kappa == pytest.approx(1.0)

    def test_check_zero_input(self):
        ok, _ = strong_controllability_check(LinearSystem([[0.5]], [[0.0]]), 1)
        assert not ok

    def test_check_scaled_identity(self):
        sys = LinearSystem(np.zeros((2, 2)), 2 * np.eye(2))
        ok, kappa = strong_controllability_check(sys, 1)
        assert ok and kappa == pytest.approx(0.25)


class TestMinEnergyControls:
    def test_identity_one_step(self):
        sys = LinearSystem(np.zeros((2, 2)), np.eye(2))
        u = min_energy_controls(sys, 1, [1.0, 0.0])
        assert np.allclose(u, [[1.0, 0.0]])

    def test_zero_target(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        assert np.allclose(min_energy_controls(sys, 1, [0.0]), 0.0)

    def test_two_step_rollout(self):
        sys = LinearSystem([[0, 1], [0, 0]], [[0], [1]])
        controls = min_energy_controls(sys, 2, [1.0, 0.0])
        x = np.zeros(2)
        for u in controls:
            x = step(sys, x, u, np.zeros(2))
        assert np.allclose(x, [1.0, 0.0], atol=1e-12)

    def test_rank_deficient_raises(self):
        sys = LinearSystem([[0.5]], [[0.0]])
        with pytest.raises(NotControllableError):
            min_energy_controls(sys, 1, [1.0])

    def test_lands_and_energy_bound(self, rng):
        # reachability and the energy bound, both directions of the
        # controllability characterization, on random systems
        for _ in range(100):
            sys, k, kappa, _ = random_controllable_system(rng)
            x_f = rng.normal(size=sys.d_x)
            controls = min_energy_controls(sys, k, x_f)
            x = np.zeros(sys.d_x)
            for u in controls:
                x = step(sys, x, u, np.zeros(sys.d_x))
            assert np.linalg.norm(x - x_f) <= 1e-8 * max(1.0, np.linalg.norm(x_f))
            energy = float(np.sum(controls**2))
            assert energy <= kappa * float(x_f @ x_f) * (1 + 1e-8)


class TestDisturbances:
    @pytest.mark.parametrize("make", [
        lambda: ZeroDisturbance(),
        lambda: ClippedGaussianDisturbance(3, scale=2.0, seed=0),
        lambda: SinusoidalDisturbance(3, omega=0.37),
        lambda: SignAdversarialDisturbance(),
    ])
    def test_unit_norm_contract(self, make, rng):
        dist = make()
        for t in range(1, 10**4 + 1):
            w = dist(t, rng.normal(size=3))
            assert np.linalg.norm(w) <= 1.0 + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), d_x=st.integers(1, 40), t=st.integers(1, 10**6))
    def test_unit_norm_property(self, data, d_x, t):
        # ||w_t|| <= 1 for every built-in source, at any round and any state:
        # zero, huge and tiny states included. The slack is the rounding of a
        # unit vector and of its computed norm, a d_x-term sum of squares
        bound = 1.0 + (d_x + 2) * np.finfo(float).eps
        x = data.draw(hnp.arrays(float, d_x, elements=st.floats(-1.0, 1.0)))
        # the second band is where ||x||^2 is subnormal
        x *= 2.0 ** data.draw(st.one_of(st.integers(-1070, 1020),
                                        st.integers(-540, -505)))
        sources = [
            ZeroDisturbance(),
            ClippedGaussianDisturbance(
                d_x, scale=data.draw(st.floats(1e-3, 1e6)),
                seed=data.draw(st.integers(0, 2**32 - 1))),
            SinusoidalDisturbance(
                d_x, omega=data.draw(st.floats(-10.0, 10.0)),
                phases=data.draw(st.one_of(st.none(), hnp.arrays(
                    float, d_x, elements=st.floats(-1e3, 1e3)))),
                amplitude=data.draw(st.floats(0.0, 1.0, exclude_min=True))),
        ]
        sign = SignAdversarialDisturbance(
            scale=data.draw(st.floats(0.0, 1.0, exclude_min=True)))
        rows = data.draw(hnp.arrays(float, (3, d_x),
                                    elements=st.floats(-1e3, 1e3)))
        rows /= np.maximum(np.linalg.norm(rows, axis=1), 1.0)[:, None]
        replay = ReplayDisturbance(rows)
        for dist in sources:
            w = dist(t, x.copy())
            assert w.shape == (d_x,)
            assert np.linalg.norm(w) <= bound
        for i in range(1, 4):
            assert np.linalg.norm(replay(i, x)) <= bound
        # the sign adversary pushes at full scale against any nonzero state
        w = sign(t, x.copy())
        want = sign.scale if x.any() else 0.0
        assert abs(np.linalg.norm(w) - want) <= (d_x + 2) * np.finfo(float).eps

    def test_sign_adversarial_direction(self):
        dist = SignAdversarialDisturbance()
        w = dist(1, np.array([3.0, 4.0]))
        assert np.allclose(w, [-0.6, -0.8])
        assert np.array_equal(dist(2, np.zeros(2)), np.zeros(2))

    @pytest.mark.parametrize("scale", [2.0 ** -1070, 1e-160, 1e200, 1e307])
    def test_sign_adversarial_direction_at_extreme_states(self, scale):
        # ||x||^2 underflows or overflows here; the direction must not
        w = SignAdversarialDisturbance()(1, scale * np.array([3.0, 4.0]))
        assert np.allclose(w, [-0.6, -0.8], rtol=1e-15, atol=0.0)

    def test_replay_checks_norm(self):
        with pytest.raises(ValueError):
            ReplayDisturbance([[2.0, 0.0]])
        dist = ReplayDisturbance([[0.1, 0.2], [0.3, 0.4]])
        assert np.allclose(dist(2, np.zeros(2)), [0.3, 0.4])


class TestCostFunction:
    def test_zero_at_origin(self):
        c = CostFunction.quadratic()
        assert c.value(np.zeros(2), np.zeros(3)) == 0.0

    @pytest.mark.parametrize("cost,d_u", [
        (CostFunction.quadratic(), 2),
        (CostFunction.weighted_quadratic([[2.0, 0.3], [0.3, 1.0]], [[0.5]]), 1),
    ])
    def test_gradient_matches_finite_differences(self, cost, d_u, rng):
        h = 1e-6
        for _ in range(20):
            x, u = rng.normal(size=2), rng.normal(size=d_u)
            gx, gu = cost.gradient(x, u)
            for i in range(len(x)):
                e = np.zeros_like(x)
                e[i] = h
                num = (cost.value(x + e, u) - cost.value(x - e, u)) / (2 * h)
                assert abs(gx[i] - num) <= 1e-6 * max(1.0, abs(num))
            for i in range(len(u)):
                e = np.zeros_like(u)
                e[i] = h
                num = (cost.value(x, u + e) - cost.value(x, u - e)) / (2 * h)
                assert abs(gu[i] - num) <= 1e-6 * max(1.0, abs(num))

    def test_midpoint_convexity(self, rng):
        c = CostFunction.quadratic()
        for _ in range(50):
            x1, x2 = rng.normal(size=2), rng.normal(size=2)
            u1, u2 = rng.normal(size=2), rng.normal(size=2)
            mid = c.value((x1 + x2) / 2, (u1 + u2) / 2)
            assert mid <= 0.5 * c.value(x1, u1) + 0.5 * c.value(x2, u2) + 1e-12

    def test_batch_agrees_with_scalar(self, rng):
        c = CostFunction.quadratic()
        X, U = rng.normal(size=(7, 2)), rng.normal(size=(7, 3))
        batch = c.batch_value(X, U)
        for t in range(7):
            assert batch[t] == pytest.approx(c.value(X[t], U[t]))


class TestCertify:
    def test_diagonal(self):
        # X = diag(4/3, 16/15), so kappa = cond(H) = sqrt(1.25) (the
        # eigenvector witness gave 1.0) and gamma = 1 - sqrt(1 - 3/4)
        sys = LinearSystem(np.diag([0.5, 0.25]), np.eye(2))
        cert = certify_strong_stability(sys, np.zeros((2, 2)))
        assert cert.kappa == pytest.approx(math.sqrt(1.25))
        assert cert.gamma == pytest.approx(0.5)

    def test_deadbeat(self):
        cert = certify_strong_stability(LinearSystem([[0.5]], [[1.0]]), [[-0.5]])
        assert cert.gamma == pytest.approx(1.0)

    def test_unstable_rejected(self):
        sys = LinearSystem(np.diag([1.2, 0.5]), np.eye(2))
        with pytest.raises(CertificateError, match="unstable closed loop"):
            certify_strong_stability(sys, np.zeros((2, 2)))

    def test_soundness_on_random_certificates(self, rng):
        # all four definitional inequalities hold for every returned witness
        from conftest import random_certified_pair
        for _ in range(30):
            sys, K, cert = random_certified_pair(rng)
            assert np.linalg.norm(cert.K, 2) <= cert.kappa + 1e-8
            Hinv = np.linalg.inv(cert.H)
            assert np.linalg.norm(cert.H, 2) * np.linalg.norm(Hinv, 2) \
                <= cert.kappa + 1e-8
            assert np.linalg.norm(cert.L, 2) <= 1 - cert.gamma + 1e-8
            assert cert.residual(sys) <= 1e-8

    def test_complex_pair_realified(self):
        F = np.array([[0.3, 0.4], [-0.4, 0.3]])
        sys = LinearSystem(F, np.eye(2))
        cert = certify_strong_stability(sys, np.zeros((2, 2)))
        assert cert.gamma == pytest.approx(0.5)
        assert cert.residual(sys) <= 1e-10

    @pytest.mark.parametrize("F,norm_L,cond_H", [
        ([[0.5, 1.0], [0.0, 0.5]], 0.88310, 2.04),
        ([[0.9, 5.0], [0.0, 0.9]], 0.99992, 47.7),
    ])
    def test_defective_loops(self, F, norm_L, cond_H):
        # no eigenvector basis: the realified eigendecomposition refused
        # both, at eigenvector condition 1.8e16 and 5e16
        sys = LinearSystem(F, np.zeros((2, 1)))
        cert = certify_strong_stability(sys, np.zeros((1, 2)))
        lam_max = np.linalg.eigvalsh(_lyapunov(sys.A))[-1]
        assert abs(cert.norm_L - math.sqrt(1.0 - 1.0 / lam_max)) <= 1e-12
        assert round(cert.norm_L, 5) == norm_L
        assert round(float(np.linalg.cond(cert.H)), 2 if cond_H < 10 else 1) == cond_H
        assert cert.kappa == pytest.approx(np.linalg.cond(cert.H), rel=1e-12)
        assert cert.residual(sys) <= 1e-12 * np.linalg.norm(sys.A, 2)

    @pytest.mark.parametrize("F", [
        np.diag([1.0, 0.5]),
        [[1.0, 1.0], [0.0, 1.0]],
        [[0.0, -1.0], [1.0, 0.0]],
    ])
    def test_unit_spectral_radius_rejected(self, F):
        # the Lyapunov sum diverges at rho = 1: refused before it is tried
        sys = LinearSystem(F, np.zeros((2, 1)))
        with pytest.raises(CertificateError, match="unstable closed loop"):
            certify_strong_stability(sys, np.zeros((1, 2)))

    def test_a_witness_that_does_not_contract_is_refused(self, monkeypatch):
        # X = I, as a solve that rounding ruined could return, gives L = F
        # with ||L|| > 1: refused, not returned with gamma < 0
        monkeypatch.setattr(lds, "_lyapunov", lambda F: np.eye(len(F)))
        sys = LinearSystem([[0.9, 5.0], [0.0, 0.9]], np.zeros((2, 1)))
        with pytest.raises(CertificateError, match="witness has"):
            certify_strong_stability(sys, np.zeros((1, 2)))

    @given(jordan=st.booleans(), n=st.integers(1, 4),
           rho=st.floats(0.0, 0.999) | st.just(0.999),
           scale=st.floats(0.1, 5.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_witness_property(self, jordan, n, rho, scale, seed):
        # a Jordan block +-rho I + scale N (defective for n > 1), or a dense
        # Gaussian F rescaled to spectral radius rho (complex pairs included)
        rng = np.random.default_rng(seed)
        if jordan:
            F = rho * rng.choice([-1.0, 1.0]) * np.eye(n) + scale * np.eye(n, k=1)
        else:
            F = rng.normal(size=(n, n))
            F *= rho / max(abs(np.linalg.eigvals(F)))
        sys = LinearSystem(F, np.zeros((n, 1)))
        lam_max = np.linalg.eigvalsh(_lyapunov(F))[-1]
        try:
            cert = certify_strong_stability(sys, np.zeros((1, n)))
        except CertificateError:
            # refused only where gamma ~ 1/(2 lambda_max) is below the
            # rounding of ||L|| near 1 (n >= 3 Jordan blocks near rho = 1)
            assert lam_max >= 1e13
            return
        # squared, since 1 - 1/lambda_max carries an absolute rounding of eps
        # that its square root magnifies to eps / (2 ||L||) for a small ||L||
        assert abs(cert.norm_L**2 - (1.0 - 1.0 / lam_max)) <= 1e-12
        assert cert.residual(sys) <= 1e-12 * max(np.linalg.norm(F, 2), 1e-300)
        # the envelope ||F^t|| <= kappa (1 - gamma)^t, with 1 - gamma = ||L||
        # as stored (1 - gamma itself rounds once more)
        power = np.eye(n)
        for t in range(201):
            assert np.linalg.norm(power, 2) \
                <= (1.0 + 1e-12) * cert.kappa * cert.norm_L**t + 1e-300
            power = power @ F

    def test_smith_solve_matches_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(11)
        cases = [np.array([[0.5, 1.0], [0.0, 0.5]]), np.array([[0.9, 5.0], [0.0, 0.9]]),
                 0.999 * np.eye(3) + np.eye(3, k=1)]
        for n in (1, 2, 3, 4, 6, 8):
            for rho in (0.0, 0.5, 0.9, 0.99, 0.999):
                F = rng.normal(size=(n, n))
                cases.append(F * rho / max(abs(np.linalg.eigvals(F))))
        for F in cases:
            X = _lyapunov(F)
            ref = linalg.solve_discrete_lyapunov(F, np.eye(len(F)))
            assert np.linalg.norm(X - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)
            assert np.array_equal(X, X.T)

    def test_overflowing_sum_is_refused_without_a_warning(self):
        # a dense 4x4 Jordan block at rho = 0.999: the doubling overflows,
        # which surfaced as "RuntimeWarning: overflow encountered in matmul"
        # (four of them without the suite's filter) before CertificateError.
        # No warning is suppressed here: any warning fails the test.
        Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
        F = Q @ (0.999 * np.eye(4) + np.eye(4, k=1)) @ Q.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CertificateError, match="Lyapunov sum overflows"):
                certify_strong_stability(LinearSystem(F, np.zeros((4, 1))),
                                         np.zeros((1, 4)))


class TestPriorBounds:
    def test_validation(self):
        PriorBounds(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            PriorBounds(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PriorBounds(1, 0.5, 1.0)
        with pytest.raises(ValueError):
            PriorBounds(1, 1.0, 0.9)
