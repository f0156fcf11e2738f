import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blackbox_lds import (
    BlackBoxPlant,
    CostFunction,
    LinearSystem,
    SdpBlockMatrix,
    SignAdversarialDisturbance,
    ZeroDisturbance,
    certify_strong_stability,
    controller_recovery,
    decay,
    extract_controller,
    project_affine,
    project_psd_trace,
    sdp_feasibility,
)
from blackbox_lds import stabilize
from blackbox_lds.errors import ConfigError, NotStabilizingError, SdpInfeasibleError
from blackbox_lds.stabilize import AffineProjector, RecoveryConstants, decay_horizon
from conftest import random_certified_pair
from stabilize_reference import RefAffineProjector, ref_sdp_feasibility

QUAD = CostFunction.quadratic()


class TestPsdTraceProjection:
    def test_hand_qp(self):
        out = project_psd_trace(np.diag([2.0, -1.0]), 1.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_fixed_point(self):
        S = np.array([[0.4, 0.1], [0.1, 0.3]])
        assert np.allclose(project_psd_trace(S, 1.0), S, atol=1e-12)

    def test_all_negative_spectrum(self):
        assert np.allclose(project_psd_trace(np.diag([-1.0, -2.0]), 5.0), 0.0)

    def test_projection_properties(self, rng):
        # output is PSD with trace <= nu, and projecting twice is a no-op
        for _ in range(50):
            n = int(rng.integers(1, 5))
            S = rng.normal(size=(n, n))
            S = 0.5 * (S + S.T)
            nu = float(rng.uniform(0.5, 3.0))
            P = project_psd_trace(S, nu)
            eigs = np.linalg.eigvalsh(P)
            assert eigs.min() >= -1e-12
            assert np.trace(P) <= nu + 1e-10
            assert np.allclose(project_psd_trace(P, nu), P, atol=1e-10)

    def test_is_nearest_point(self, rng):
        # no random feasible candidate is closer to S than the projection
        for _ in range(10):
            n = 3
            S = rng.normal(size=(n, n))
            S = 0.5 * (S + S.T)
            nu = 2.0
            P = project_psd_trace(S, nu)
            d_proj = np.linalg.norm(P - S)
            for _ in range(20):
                Q = rng.normal(size=(n, n))
                C = Q @ Q.T
                C *= min(1.0, nu / np.trace(C))
                assert np.linalg.norm(C - S) >= d_proj - 1e-9


class TestAffineProjection:
    def test_scalar_line(self):
        out = project_affine(np.zeros((2, 2)), [[0.0]], [[1.0]])
        assert np.allclose(out, np.diag([0.5, -0.5]), atol=1e-12)

    def test_fixed_point(self):
        S = np.array([[1.5, 0.3], [0.3, 0.5]])  # satisfies sxx - suu = 1
        assert np.allclose(project_affine(S, [[0.0]], [[1.0]]), S, atol=1e-12)

    def test_pins_only_xx_block(self):
        out = project_affine(np.diag([3.0, 7.0]), [[0.0]], [[0.0]])
        assert np.allclose(out, np.diag([1.0, 7.0]), atol=1e-12)

    def test_projection_lands_on_constraint(self, rng):
        for _ in range(25):
            d_x, d_u = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            A = rng.normal(size=(d_x, d_x))
            B = rng.normal(size=(d_x, d_u))
            S = rng.normal(size=(d_x + d_u, d_x + d_u))
            S = 0.5 * (S + S.T)
            proj = AffineProjector(A, B)
            out = proj.project(S)
            assert proj.residual(out) <= 1e-9
            # idempotent and never farther than the input
            again = proj.project(out)
            assert np.allclose(again, out, atol=1e-9)


def _sym(rng, n, scale=1.0):
    S = rng.normal(size=(n, n)) * scale
    return 0.5 * (S + S.T)


def _nu(kappa_prime, gamma_prime, eps, d_x):
    """The trace cap of existence parameters (kappa', gamma', eps)."""
    return RecoveryConstants.from_existence(kappa_prime, gamma_prime, eps, d_x).nu


def _unstable_pairs():
    """Twelve unstable pairs (spectral radius 1.1) with the trace cap nu of
    kappa' = 3, gamma' = 1/18, eps = 0: most are feasible at the first
    iterate, draws 4 and 6 take 1058 and 1906 iterations, and draw 9 ends at
    the 10^5-iteration cap although its LQR point (trace 3597 against
    nu = 11664) is feasible."""
    g = np.random.default_rng(5)
    for _ in range(12):
        d_x, d_u = int(g.integers(2, 5)), int(g.integers(1, 3))
        A = g.normal(size=(d_x, d_x))
        A *= 1.1 / max(abs(np.linalg.eigvals(A)))
        B = g.normal(size=(d_x, d_u))
        B /= np.linalg.norm(B, 2)
        yield A, B, _nu(3.0, 1 / 18, 0.0, d_x)


class TestSvecSmat:
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=150, deadline=None)
    def test_isometry_adjoint_and_inverse(self, d, seed, e_r, e_v):
        # A = B = 0 gives P = I; only the coordinate maps matter here
        proj = AffineProjector(np.zeros((d, d)), np.zeros((d, 1)))
        g = np.random.default_rng(seed)
        R = _sym(g, d, 10.0**e_r)
        v = g.normal(size=d * (d + 1) // 2) * 10.0**e_v
        eps = np.finfo(float).eps
        r = proj.svec(R)
        norm_R = np.linalg.norm(R)
        assert abs(np.linalg.norm(r) - norm_R) <= 4 * eps * norm_R
        # fsum rounds each inner product once; only the products' rounding is left
        lhs = math.fsum(r * v)
        rhs = math.fsum((R * proj.smat(v)).ravel())
        assert abs(lhs - rhs) <= 4 * eps * norm_R * np.linalg.norm(v)
        back = proj.smat(r)
        assert np.all(np.abs(back - R) <= 4 * eps * np.abs(R))
        assert np.array_equal(back, back.T)

    @given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.9), st.integers(-2, 1))
    @settings(max_examples=100, deadline=None)
    def test_normal_matrix_is_symmetric_positive_definite(self, d_x, d_u, seed,
                                                          radius, e_b):
        g = np.random.default_rng(seed)
        A = g.normal(size=(d_x, d_x))
        A *= radius / np.linalg.norm(A, 2)
        B = g.normal(size=(d_x, d_u)) * 10.0**e_b
        P = AffineProjector(A, B)._P
        eps = np.finfo(float).eps
        assert np.abs(P - P.T).max() <= 32 * eps * np.abs(P).max()
        eigs = np.linalg.eigvalsh(0.5 * (P + P.T))
        # ||F*(Lam)||_F >= ||Lam - A' Lam A||_F >= (1 - ||A||^2) ||Lam||_F
        assert eigs[0] >= (1 - radius**2) ** 2 - 1e-12 * eigs[-1]

    def test_orthogonal_A_without_input_is_rejected(self):
        # F*(I) = 0 when A is orthogonal and B = 0
        Q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
        for cls in (AffineProjector, RefAffineProjector):
            with pytest.raises(SdpInfeasibleError, match="rank deficient") as err:
                cls(Q, np.zeros((3, 1)))
            assert err.value.reason == "rank"


class TestAgainstReference:
    """The index-array svec/smat paths against the parent's per-basis-matrix
    loops: every value must be bit-identical."""

    @pytest.mark.parametrize("d_x", [1, 2, 5, 12])
    @pytest.mark.parametrize("d_u", [1, 3])
    def test_normal_equations(self, rng, d_x, d_u):
        A = rng.normal(size=(d_x, d_x))
        B = rng.normal(size=(d_x, d_u))
        new, ref = AffineProjector(A, B), RefAffineProjector(A, B)
        assert np.array_equal(new._P, ref._P)
        assert np.array_equal(new._P_factor, ref._P_factor)
        for scale in (1e-100, 1.0, 1e100):
            for _ in range(5):
                S = _sym(rng, d_x + d_u, scale)
                assert np.array_equal(new.project(S), ref.project(S))
                assert new.residual(S) == ref.residual(S)
            # a non-symmetric input is symmetrized first on both paths
            S = rng.normal(size=(d_x + d_u, d_x + d_u)) * scale
            assert np.array_equal(new.project(S), ref.project(S))

    def test_solver_iterates(self):
        # capped at 3000 so that draw 9 ends quickly on both paths
        lengths = []
        for A, B, nu in _unstable_pairs():
            runs = []
            with mock.patch.object(stabilize, "DEFAULT_MAX_ITERS", 3000):
                for solve in (sdp_feasibility, partial(ref_sdp_feasibility,
                                                       max_iters=3000)):
                    seen = []
                    try:
                        sigma = solve(A, B, nu,
                                      on_iteration=lambda it, v: seen.append((it, v)))
                        end = [sigma.sigma, extract_controller(sigma)]
                    except SdpInfeasibleError as exc:
                        end = [exc.reason, exc.iterations, exc.residual]
                    runs.append((seen, end))
            (seen, end), (seen_ref, end_ref) = runs
            assert seen == seen_ref
            assert all(np.array_equal(a, b) for a, b in zip(end, end_ref))
            lengths.append(len(seen))
        assert sum(n > 1000 for n in lengths) >= 3

    def test_infeasible_pair(self):
        # the certificate proves A=2, B=0 infeasible at once, on the same
        # iterates; the reference, which has no certificate, plateaus at 2000
        seen, seen_ref = [], []
        with pytest.raises(SdpInfeasibleError) as err:
            sdp_feasibility([[2.0]], [[0.0]], 5.0,
                            on_iteration=lambda it, v: seen.append((it, v)))
        with pytest.raises(SdpInfeasibleError) as ref:
            ref_sdp_feasibility([[2.0]], [[0.0]], 5.0,
                                on_iteration=lambda it, v: seen_ref.append((it, v)))
        assert err.value.reason == "certificate"
        assert err.value.iterations == len(seen) <= 2
        assert seen == seen_ref[: len(seen)]
        assert ref.value.reason == "plateau"
        assert ref.value.iterations == len(seen_ref) == 2000


class TestDualCertificate:
    """sdp_feasibility's Farkas certificate: sound on every feasible pair,
    and quick on pairs that no input can stabilize."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e3]),
           st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_never_fires_on_a_feasible_pair(self, seed, b_scale, e_lam):
        g = np.random.default_rng(seed)
        sys, K, cert = random_certified_pair(g)
        # (A, b B) with K / b has the same closed loop and a smaller ||K||,
        # so nu = 2 kappa^4 d_x / gamma still admits its covariance
        A, B = sys.A, b_scale * sys.B
        nu = 2.0 * cert.kappa**4 * sys.d_x / cert.gamma
        proj = AffineProjector(A, B)
        n = proj.d_x + proj.d_u
        # no symmetric Lambda whatever proves a feasible SDP infeasible
        for _ in range(20):
            Lam = _sym(g, proj.d_x, 10.0**e_lam)
            for L in (Lam, -Lam):
                assert proj.certificate_margin(L, proj._F_adjoint(L), nu) <= 0.0
        # nor does the multiplier of any point of {PSD, Tr <= nu}
        for _ in range(20):
            y = project_psd_trace(_sym(g, n, 10.0**e_lam), nu)
            Lam = proj._multiplier(y)
            assert proj.certificate_margin(Lam, proj._F_adjoint(Lam), nu) <= 0.0
        # and the solver, capped so that ill-conditioned draws end quickly,
        # keeps the reference's iterates and never cites the certificate
        runs = []
        with mock.patch.object(stabilize, "DEFAULT_MAX_ITERS", 3000):
            for solve in (sdp_feasibility, partial(ref_sdp_feasibility,
                                                   max_iters=3000)):
                seen = []
                try:
                    end = [solve(A, B, nu, on_iteration=lambda it, v:
                                 seen.append((it, v))).sigma]
                except SdpInfeasibleError as exc:
                    assert exc.reason in ("plateau", "cap")
                    end = [exc.reason, exc.iterations, exc.residual]
                runs.append((seen, end))
        (seen, end), (seen_ref, end_ref) = runs
        assert seen == seen_ref
        assert all(np.array_equal(a, b) for a, b in zip(end, end_ref))

    @given(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**32 - 1),
           st.floats(1.0, 3.0, exclude_min=True), st.floats(-1.0, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_rejects_an_unstable_pair_without_input(self, d_x, d_u, seed, rho,
                                                    e_nu):
        # B = 0 leaves Sigma_xx = A Sigma_xx A' + I, which has no PSD
        # solution once rho(A) > 1, whatever nu is
        g = np.random.default_rng(seed)
        A = g.normal(size=(d_x, d_x))
        A *= rho / max(abs(np.linalg.eigvals(A)))
        with pytest.raises(SdpInfeasibleError) as err:
            sdp_feasibility(A, np.zeros((d_x, d_u)), 10.0**e_nu)
        if err.value.reason == "rank":
            # eigenvalue pairs with lambda_i lambda_j near 1 make P singular:
            # the projector refuses them before any iteration
            assert err.value.iterations is None and d_x > 1 and rho < 1.01
        else:
            # proved before the plateau rule's first check at iteration 2000
            assert err.value.reason == "certificate"
            assert err.value.iterations <= 1024

    @pytest.mark.parametrize("nu", [5.0, 1e3, 1e6])
    def test_rejects_an_unstable_mode_the_input_cannot_reach(self, nu):
        # x_1 sees neither the input nor x_2: Sigma_11 = 4 Sigma_11 + 1
        with pytest.raises(SdpInfeasibleError) as err:
            sdp_feasibility(np.diag([2.0, 0.5]), [[0.0], [1.0]], nu)
        assert err.value.reason == "certificate"
        assert err.value.iterations <= 2


class TestRejectionReasons:
    """Every SdpInfeasibleError names the rule that raised it."""

    def test_certificate(self):
        with pytest.raises(SdpInfeasibleError) as err:
            controller_recovery([[2.0]], [[0.0]], _nu(3.0, 1 / 18, 0.0, 1))
        assert err.value.reason == "certificate"
        assert err.value.iterations == 1

    def test_plateau(self, monkeypatch):
        # without the certificate, A=2, B=0 stalls: every affine point has
        # Sigma_xx = -1/3, a PSD violation of at least 1/3
        monkeypatch.setattr(AffineProjector, "certificate_margin",
                            lambda *args: -math.inf)
        with pytest.raises(SdpInfeasibleError) as err:
            sdp_feasibility([[2.0]], [[0.0]], 5.0)
        assert err.value.reason == "plateau"
        assert err.value.iterations == 2000
        assert err.value.residual == pytest.approx(1 / 3)

    def test_a_feasible_pair_can_reach_the_cap(self, monkeypatch):
        # draw 9 is feasible, but its violation keeps shrinking too slowly to
        # finish: no plateau at 2000 or 3000, and the (lowered) cap rejects it
        A, B, nu = list(_unstable_pairs())[9]
        monkeypatch.setattr(stabilize, "DEFAULT_MAX_ITERS", 3000)
        with pytest.raises(SdpInfeasibleError) as err:
            sdp_feasibility(A, B, nu)
        assert err.value.reason == "cap"
        assert err.value.iterations == 3000

    def test_cap(self, monkeypatch):
        # draw 4 needs 1058 iterations
        A, B, nu = list(_unstable_pairs())[4]
        monkeypatch.setattr(stabilize, "DEFAULT_MAX_ITERS", 500)
        with pytest.raises(SdpInfeasibleError) as err:
            sdp_feasibility(A, B, nu)
        assert err.value.reason == "cap"
        assert err.value.iterations == 500

    def test_rank(self):
        Q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
        with pytest.raises(SdpInfeasibleError) as err:
            sdp_feasibility(Q, np.zeros((3, 1)), 10.0)
        assert err.value.reason == "rank"
        with pytest.raises(SdpInfeasibleError) as err:
            extract_controller(SdpBlockMatrix(np.diag([1.0, 0.0, 1.0]), 2, 1))
        assert err.value.reason == "rank"

    def test_witness(self, monkeypatch):
        # an iterate that is not feasible (K = 3 on A = 1, B = 1) fails the
        # witness bound ||L|| <= 1 - 1/(2 nu)
        bad = SdpBlockMatrix(np.array([[1.0, 3.0], [3.0, 10.0]]), 1, 1)
        monkeypatch.setattr(stabilize, "sdp_feasibility",
                            lambda *args, **kwargs: bad)
        with pytest.raises(SdpInfeasibleError) as err:
            stabilize.controller_recovery([[1.0]], [[1.0]], _nu(3.0, 1 / 18, 0.0, 1))
        assert err.value.reason == "witness"


class TestSdpFeasibility:
    def test_scalar_trivial(self):
        sigma = sdp_feasibility([[0.0]], [[1.0]], 3.0)
        proj = AffineProjector([[0.0]], [[1.0]])
        assert proj.residual(sigma.sigma) <= 1e-9
        assert np.linalg.eigvalsh(sigma.sigma).min() >= -1e-9
        assert np.trace(sigma.sigma) <= 3.0 + 1e-9

    def test_scalar_stable_estimate(self):
        sigma = sdp_feasibility([[0.5]], [[1.0]], 10.0)
        proj = AffineProjector([[0.5]], [[1.0]])
        assert proj.residual(sigma.sigma) <= 1e-9
        assert np.linalg.eigvalsh(sigma.sigma).min() >= -1e-9
        assert np.trace(sigma.sigma) <= 10.0 + 1e-9

    def test_uncontrollable_unstable_is_infeasible(self):
        # Sigma_xx = 4 Sigma_xx + 1 forces Sigma_xx < 0
        with pytest.raises(SdpInfeasibleError):
            sdp_feasibility([[2.0]], [[0.0]], 5.0)

    def test_violation_monitor(self, rng):
        # constraint violation is non-increasing after a 10-iteration burn-in
        # on feasible instances (monitored, not proven)
        for _ in range(5):
            sys, K, cert = random_certified_pair(rng)
            nu = 2.0 * cert.kappa**4 * sys.d_x / cert.gamma
            trace = []
            sigma = sdp_feasibility(sys.A, sys.B, nu,
                                    on_iteration=lambda it, v: trace.append(v))
            proj = AffineProjector(sys.A, sys.B)
            assert proj.residual(sigma.sigma) <= 1e-9
            tail = trace[10:]
            for a, b in zip(tail, tail[1:]):
                assert b <= a * (1 + 1e-9)


class TestExtractController:
    def test_zero_cross_block(self):
        sigma = SdpBlockMatrix(np.diag([2.0, 1.0]), 1, 1)
        assert extract_controller(sigma)[0, 0] == 0.0

    def test_identity_xx(self):
        S = np.array([[1.0, 0.0, 0.7], [0.0, 1.0, -0.2], [0.7, -0.2, 1.0]])
        sigma = SdpBlockMatrix(S, 2, 1)
        assert np.allclose(extract_controller(sigma), [[0.7, -0.2]])

    def test_scalar_division(self):
        sigma = SdpBlockMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]), 1, 1)
        assert extract_controller(sigma)[0, 0] == pytest.approx(0.5)


class TestControllerRecovery:
    def test_zero_system(self):
        nu = _nu(1.0, 1.0, 0.0, 1)
        result = controller_recovery([[0.0]], [[1.0]], nu)
        assert nu == pytest.approx(2.0)
        assert result.norm_L <= 1 - 1 / (2 * 2.0) + 1e-8

    def test_scalar_half(self):
        nu = _nu(np.sqrt(6), 1 / 12, 1e-6, 1)
        result = controller_recovery([[0.5]], [[1.0]], nu)
        rho = abs(0.5 + result.K[0, 0])
        assert rho < 1.0
        assert rho <= 1 - 1 / (2 * nu) + 1e-6

    def test_solver_counters_match_a_direct_solve(self, monkeypatch):
        # capped at 3000 so that draw 9 ends quickly
        monkeypatch.setattr(stabilize, "DEFAULT_MAX_ITERS", 3000)
        lengths = []
        for A, B, nu in _unstable_pairs():
            seen = []
            try:
                sigma = sdp_feasibility(A, B, nu, on_iteration=lambda it, v: seen.append(v))
            except SdpInfeasibleError:
                with pytest.raises(SdpInfeasibleError):
                    controller_recovery(A, B, nu)
                continue
            result = controller_recovery(A, B, nu)
            assert result.norm_L <= 1 - 1 / (2 * nu)
            assert result.sdp_iterations == len(seen)
            assert result.sdp_violation == seen[-1] <= 1e-9
            assert result.sdp_affine_residual \
                == AffineProjector(A, B).residual(sigma.sigma) <= 1e-9
            lengths.append(len(seen))
        assert sum(n > 1000 for n in lengths) >= 2

    @pytest.mark.parametrize("draw", [5, 11])
    def test_slow_random_draws_certify(self, draw):
        # the recover benchmark's recipe (d_x 8-16, d_u 2-4, spectral radius
        # 1.1) under default_rng(7): draws 5 (d_x 10) and 11 (d_x 8) need
        # ~22 500 iterations; Dykstra's method gave up on both at 10^5
        g = np.random.default_rng(7)
        for _ in range(draw + 1):
            d_x, d_u = int(g.integers(8, 17)), int(g.integers(2, 5))
            A = g.normal(size=(d_x, d_x))
            A *= 1.1 / max(abs(np.linalg.eigvals(A)))
            B = g.normal(size=(d_x, d_u))
            B /= np.linalg.norm(B, 2)
        assert (d_x, d_u) == {5: (10, 2), 11: (8, 2)}[draw]
        nu = _nu(3.0, 1 / 18, 1e-6, d_x)
        result = controller_recovery(A, B, nu)
        assert result.norm_L <= 1 - 1 / (2 * nu)
        assert max(abs(np.linalg.eigvals(A + B @ result.K))) < 1.0
        assert 1000 < result.sdp_iterations < 25000

    @pytest.mark.parametrize("draw", [4, 6])
    def test_orthogonal_change_of_basis(self, draw):
        # (Q A Q', Q B R') with Q, R orthogonal is the same system in other
        # coordinates: the iteration count is the same and K' = R K Q'
        A, B, nu = list(_unstable_pairs())[draw]
        base = controller_recovery(A, B, nu)
        assert base.sdp_iterations > 1000
        g = np.random.default_rng(draw)
        for _ in range(3):
            Q = np.linalg.qr(g.normal(size=A.shape))[0]
            R = np.linalg.qr(g.normal(size=(B.shape[1],) * 2))[0]
            moved = controller_recovery(Q @ A @ Q.T, Q @ B @ R.T, nu)
            assert moved.sdp_iterations == base.sdp_iterations
            expected = R @ base.K @ Q.T
            assert np.linalg.norm(moved.K - expected) \
                <= 1e-9 * np.linalg.norm(expected)

    def test_nu_precondition(self):
        # gamma' <= 2 eps kappa'^2 leaves nu no positive value
        with pytest.raises(ValueError):
            RecoveryConstants.from_existence(1.0, 0.01, 0.3, 1)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_nu_must_be_positive_and_finite(self, nu):
        # nan and inf escaped as a bare LinAlgError (SVD did not converge),
        # inf with a RuntimeWarning; a ConfigError is a ValueError too
        with pytest.raises(ConfigError) as err:
            controller_recovery([[1.5]], [[1.0]], nu)
        assert err.value.path == "nu"
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            sdp_feasibility([[1.5]], [[1.0]], nu)

    @pytest.mark.parametrize("kappa_prime,gamma_prime,field", [
        # ||H|| ||H^-1|| >= 1, so no system is strongly stable with kappa' < 1
        (0.1, 0.05, "kappa_prime"),
        (1.0 - 1e-12, 0.05, "kappa_prime"),
        (float("inf"), 0.05, "kappa_prime"),
        # ||L|| <= 1 - gamma' needs 0 < gamma' <= 1
        (3.0, 0.0, "gamma_prime"),
        (3.0, -1.0, "gamma_prime"),
        (3.0, 1.0 + 1e-12, "gamma_prime"),
    ])
    def test_existence_parameters_a_system_can_have(self, kappa_prime,
                                                    gamma_prime, field):
        with pytest.raises(ConfigError) as err:
            RecoveryConstants.from_existence(kappa_prime, gamma_prime, 0.0, 2)
        assert err.value.path == field
        # the bounds themselves are allowed
        RecoveryConstants.from_existence(1.0, 1.0, 0.0, 2)

    @pytest.mark.parametrize("eps", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_eps_must_be_finite_and_nonnegative(self, eps):
        # eps = -1 used to give nu = 17.95 against 6480 at eps = 0
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            RecoveryConstants.from_existence(3.0, 0.05, eps, 2)
        assert RecoveryConstants.from_existence(3.0, 0.05, 0.0, 2).nu \
            == pytest.approx(6480.0)

    def test_sdp_soundness_random(self, rng):
        # recovered spectral radius obeys the feasibility-implied contraction
        for _ in range(10):
            sys, K, cert = random_certified_pair(rng)
            nu = _nu(cert.kappa, cert.gamma, 0.0, sys.d_x)
            result = controller_recovery(sys.A, sys.B, nu)
            rho = max(abs(np.linalg.eigvals(sys.A + sys.B @ result.K)))
            assert rho <= 1 - 1 / (2 * nu) + 1e-6

    def test_stability_transfer(self, rng):
        # perturbing the system by eps perturbs the witness contraction by
        # at most 2 eps kappa^2
        for _ in range(30):
            sys, K, cert = random_certified_pair(rng)
            eps = float(rng.uniform(1e-4, 1e-2))
            dA = rng.normal(size=sys.A.shape)
            dA *= eps / np.linalg.norm(dA, 2)
            dB = rng.normal(size=sys.B.shape)
            dB *= eps / np.linalg.norm(dB, 2)
            Hinv = np.linalg.inv(cert.H)
            L_prime = cert.L + Hinv @ (dA + dB @ K) @ cert.H
            bound = 1 - cert.gamma + 2 * eps * cert.kappa**2
            assert np.linalg.norm(L_prime, 2) <= bound + 1e-10
            # and (H, L') witnesses the perturbed closed loop
            F_pert = (sys.A + dA) + (sys.B + dB) @ K
            recon = cert.H @ L_prime @ Hinv
            assert np.linalg.norm(F_pert - recon, 2) <= 1e-8

    def test_end_to_end_on_true_system(self, rng):
        # identified estimates + recovery stabilize the true system with the
        # exact-formula margin for a certified-valid eps override
        from blackbox_lds import adv_sys_id
        for _ in range(5):
            sys, K, cert = random_certified_pair(rng, d_x_max=2, d_u_max=1)
            from blackbox_lds import strong_controllability_check
            k = None
            for kk in range(1, sys.d_x + 1):
                ok, kap = strong_controllability_check(sys, kk)
                if ok and kap < 50:
                    k = kk
                    kappa = kap
                    break
            if k is None:
                continue
            from blackbox_lds.lds import spectral_norm
            beta = max(1.0, spectral_norm(sys.A), spectral_norm(sys.B))
            eps = 1e-6
            plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD,
                                  np.zeros(sys.d_x))
            bundle = adv_sys_id(plant, eps, 8.0 * beta, k, kappa)
            result = controller_recovery(bundle.A_hat, bundle.B_hat,
                                         _nu(cert.kappa, cert.gamma, eps, sys.d_x))
            margin = cert.gamma - 2 * eps * cert.kappa**2
            kappa_exact = np.sqrt(2 * cert.kappa**4 * sys.d_x / margin)
            gamma_hat = margin / (4 * sys.d_x * cert.kappa**4)
            gamma_exact = gamma_hat - 2 * eps * kappa_exact**2
            assert gamma_exact > 0
            rho = max(abs(np.linalg.eigvals(sys.A + sys.B @ result.K)))
            assert rho <= 1 - gamma_exact + 1e-9


class TestDecay:
    def test_horizon_formula(self):
        assert decay_horizon(0.5, 2 * np.e**2) == 4
        assert decay_horizon(0.5, 1.9) == 0

    def test_no_steps_below_threshold(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.5])
        result = decay(plant, [[-0.5]], 1.0, 1.0)
        assert result.steps == 0
        assert plant.t == 1

    def test_deadbeat(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [8.0])
        result = decay(plant, [[-0.5]], 1.0, 1.0)
        assert result.x_final[0] == 0.0

    def test_terminal_bound_and_cost(self, rng):
        # certified-decay guarantees: terminal norm <= 2 kappa/gamma and cost
        # <= 16 G kappa^4 ||x0||^3 gamma^-3, under adversarial noise
        for _ in range(10):
            sys, K, cert = random_certified_pair(rng)
            x0 = rng.normal(size=sys.d_x)
            x0 *= float(rng.uniform(10.0, 1e4)) / np.linalg.norm(x0)
            plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD, x0)
            result = decay(plant, K, cert.kappa, cert.gamma)
            x0n = np.linalg.norm(x0)
            assert np.linalg.norm(result.x_final) <= 2 * cert.kappa / cert.gamma
            assert result.cost <= 16 * QUAD.G * cert.kappa**4 * x0n**3 \
                / cert.gamma**3

    @pytest.mark.parametrize("F", [[[0.5, 1.0], [0.0, 0.5]], [[0.9, 5.0], [0.0, 0.9]]])
    def test_defective_closed_loop_lands_within_the_bound(self, F):
        # certified by the Lyapunov witness only (gamma = 0.117 and 7.6e-5);
        # ||x_1|| = 1e7 lies above 2 kappa/gamma (35 and 1.3e6)
        sys = LinearSystem(F, np.zeros((2, 1)))
        K = np.zeros((1, 2))
        cert = certify_strong_stability(sys, K)
        x1 = np.array([0.0, 1e7])
        assert np.linalg.norm(x1) > 2 * cert.kappa / cert.gamma
        plant = BlackBoxPlant(sys, SignAdversarialDisturbance(), QUAD, x1)
        result = decay(plant, K, cert.kappa, cert.gamma)
        assert result.steps == decay_horizon(cert.gamma, 1e7) > 0
        assert np.linalg.norm(result.x_final) <= 2 * cert.kappa / cert.gamma

    def test_divergence_detected(self):
        # wrong prior: K destabilizes; the windowed guard must fire
        sys = LinearSystem([[1.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [100.0])
        with pytest.raises(NotStabilizingError):
            decay(plant, [[0.2]], 2.0, 0.1)
