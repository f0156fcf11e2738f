import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blackbox_lds import (
    SubspaceTracker,
    deterministic_adversary,
    randomized_lb_trial,
    sample_gaussian_system,
)
from blackbox_lds.errors import (
    ConstructionDriftError,
    DimensionMismatchError,
    NonDeterministicControllerError,
    NonFiniteValueError,
)
from blackbox_lds import cli
from blackbox_lds import lowerbound as lb
from blackbox_lds.lds import RunLog
from blackbox_lds.lowerbound import (
    BUILTIN_CONTROLLERS,
    certainty_equivalent_controller,
    frozen_random_controller,
    negative_identity_controller,
    zero_controller,
)
from lowerbound_reference import (
    RefSubspaceTracker,
    ref_certainty_equivalent_controller,
    ref_deterministic_adversary,
    ref_randomized_lb_trial,
    ref_unit_outside_span,
)

EPS = np.finfo(float).eps


class TestSubspaceTracker:
    def test_residual_against_basis(self):
        tr = SubspaceTracker(2)
        tr.extend([1.0, 0.0])
        assert np.allclose(tr.residual([1.0, 2.0]), [0.0, 2.0])

    def test_vector_in_span(self):
        tr = SubspaceTracker(2)
        tr.extend([1.0, 0.0])
        assert np.allclose(tr.residual([3.0, 0.0]), 0.0)

    def test_empty_basis_is_identity(self):
        tr = SubspaceTracker(3)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(tr.residual(x), x)

    def test_rank_and_orthonormality(self, rng):
        tr = SubspaceTracker(6)
        for _ in range(10):
            tr.extend(rng.normal(size=6))
        assert tr.rank <= 6
        gram = tr.basis.T @ tr.basis
        assert np.linalg.norm(gram - np.eye(tr.rank)) <= 1e-10

    def test_residual_orthogonal_to_basis(self, rng):
        tr = SubspaceTracker(8)
        for _ in range(4):
            tr.extend(rng.normal(size=8))
        for _ in range(20):
            h = tr.residual(rng.normal(size=8))
            assert np.abs(tr.basis.T @ h).max() <= 1e-10

    def test_extend_with_its_residual_matches_extend(self, rng):
        a, b = SubspaceTracker(6), SubspaceTracker(6)
        for _ in range(8):
            v = rng.normal(size=6)
            assert a.extend(v) == b.extend(v, residual=b.residual(v))
        assert np.array_equal(a.basis, b.basis)

    def test_dependent_vector_does_not_grow_rank(self):
        tr = SubspaceTracker(3)
        assert tr.extend([1.0, 0.0, 0.0])
        assert not tr.extend([2.0, 0.0, 0.0])
        assert tr.rank == 1

    @given(st.integers(1, 8),
           st.lists(st.tuples(st.sampled_from(["random", "in_span", "repeat",
                                               "near_span"]),
                              st.integers(0, 2**32 - 1), st.integers(-100, 100)),
                    min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_basis_properties_on_dependent_and_scaled_input(self, dim, ops):
        tr = SubspaceTracker(dim)
        fed = []
        for kind, seed, exponent in ops:
            g = np.random.default_rng(seed)
            basis = tr.basis
            if kind == "random" or (kind == "repeat" and not fed):
                v = g.normal(size=dim) * 10.0**exponent
            elif kind == "repeat":
                v = fed[int(g.integers(len(fed)))]
            else:
                v = basis @ g.normal(size=tr.rank) * 10.0**exponent
                if kind == "near_span":
                    v = v + 1e-8 * np.linalg.norm(v) * g.normal(size=dim)
            in_span = kind == "in_span" or (kind == "repeat" and bool(fed))
            rank = tr.rank
            grew = tr.extend(v)
            fed.append(v)
            # a vector fed before is in the span now, or was too small to count
            assert not (grew and in_span)
            assert tr.rank == rank + grew <= dim
            B = tr.basis
            assert B.shape == (dim, tr.rank)
            assert np.abs(B.T @ B - np.eye(tr.rank)).max(initial=0.0) <= 1e-12
            probe = g.normal(size=dim) * 10.0**exponent
            for x in (v, probe):
                h = tr.residual(x)
                assert np.abs(B.T @ h).max(initial=0.0) \
                    <= 1e-12 * np.linalg.norm(x)
        # a vector in the span never grows it
        if tr.rank:
            assert not tr.extend(tr.basis @ np.ones(tr.rank))


class TestGaussianSystem:
    def test_seeded_determinism(self):
        A1 = sample_gaussian_system(40, 40.0, seed=9)
        A2 = sample_gaussian_system(40, 40.0, seed=9)
        assert np.array_equal(A1, A2)

    def test_entry_variance(self):
        A = sample_gaussian_system(1000, 40.0, seed=3)
        target = 40.0 / 1000
        assert abs(A.var() - target) <= 0.02 * target

    def test_norm_concentration(self):
        # ||A|| <= 3 sqrt(gamma) in at least 95 of 100 seeds at d_x = 200
        hits = sum(
            np.linalg.norm(sample_gaussian_system(200, 40.0, seed=s), 2)
            <= 3 * np.sqrt(40.0)
            for s in range(100))
        assert hits >= 95


def _close_to_svd_norm(m, got):
    want = float(np.linalg.norm(m, 2))
    return abs(got - want) <= 64 * EPS * want


class TestSpectralNorm:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda g: g.normal(size=(30, 30)), id="square"),
        pytest.param(lambda g: g.normal(size=(40, 7)), id="tall"),
        pytest.param(lambda g: g.normal(size=(3, 25)), id="wide"),
        pytest.param(lambda g: np.outer(g.normal(size=12), g.normal(size=9)),
                     id="rank-one"),
        pytest.param(lambda g: np.repeat(g.normal(size=(10, 3)), 4, axis=1),
                     id="repeated-columns"),
        pytest.param(lambda g: np.array([[-3.5]]), id="1x1"),
        # the deterministic construction's Q'V is 2 times an orthogonal
        # matrix, so all its singular values tie at 2
        pytest.param(lambda g: 2.0 * np.linalg.qr(g.normal(size=(400, 400)))[0],
                     id="clustered"),
    ])
    def test_agrees_with_svd(self, rng, make):
        m = make(rng)
        assert _close_to_svd_norm(m, lb._spectral_norm(m))

    @pytest.mark.parametrize("scale", [2.0 ** 450, 2.0 ** -450])
    def test_out_of_range_falls_back_to_svd(self, rng, scale):
        m = scale * rng.normal(size=(6, 4))
        assert lb._spectral_norm(m) == np.linalg.norm(m, 2)

    @pytest.mark.parametrize("shape", [(4, 4), (0, 3), (0, 0)])
    def test_zero_and_empty(self, shape):
        assert lb._spectral_norm(np.zeros(shape)) == 0.0

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                      elements=st.floats(-1e3, 1e3, allow_subnormal=False)),
           st.integers(-500, 500))
    @settings(max_examples=300, deadline=None)
    def test_property(self, m, exponent):
        m = m * 2.0 ** exponent
        assert _close_to_svd_norm(m, lb._spectral_norm(m))

    def test_gram_freed_before_the_controller_state(self):
        # frozen_random's R is a d_x^2 array. At d_x = 400 the traced peak
        # is 2.75 d_x^2 arrays (A, R, tracker and transcript); a Gram matrix
        # of A formed while R is alive lifts it to 3.00 (right after R is
        # drawn) or 3.73 (after the last round). The eigensolver's own copy
        # is not traced.
        d_x = 400
        randomized_lb_trial(frozen_random_controller, d_x, 40.0, seed=1)
        tracemalloc.start()
        try:
            randomized_lb_trial(frozen_random_controller, d_x, 40.0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.875 * 8 * d_x * d_x


class TestRandomizedTrial:
    def test_reproducible_from_seed(self):
        a = randomized_lb_trial(zero_controller, 64, 40.0, seed=5)
        b = randomized_lb_trial(zero_controller, 64, 40.0, seed=5)
        assert np.array_equal(a.log.states(), b.log.states())
        assert np.array_equal(a.log.controls(), b.log.controls())
        assert a.total_cost == b.total_cost

    def test_boundary_dimension(self):
        t = randomized_lb_trial(zero_controller, 8, 40.0, seed=1)
        assert len(t.log) == 1
        assert t.h_sq[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("factory", [zero_controller,
                                         negative_identity_controller])
    def test_doubling_with_high_probability(self, factory):
        ok = 0
        for seed in range(20):
            t = randomized_lb_trial(factory, 200, 40.0, seed=seed)
            if t.all_doubled:
                ok += 1
                T = len(t.log)
                assert t.final_state_norm**2 >= 2.0 ** (T - 1)
        assert ok >= 19

    def test_two_residuals_per_round(self, monkeypatch):
        # h_t is measured once and reused to extend the span by x_t; only
        # u_t's residual is taken inside extend
        calls = []
        original = SubspaceTracker.residual

        def counting(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(SubspaceTracker, "residual", counting)
        t = randomized_lb_trial(frozen_random_controller, 80, 40.0, seed=3)
        assert len(t.log) == 10
        assert len(calls) == 2 * len(t.log)

    def test_first_residual_is_initial_state(self):
        t = randomized_lb_trial(zero_controller, 40, 40.0, seed=2)
        assert t.h_sq[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("h_sq,doubled", [([1.0, 2.0, 4.0], True),
                                              ([1.0, 2.0, 3.9], False)])
    def test_all_doubled_means_at_least_doubles(self, h_sq, doubled):
        # the paper's ||h_{t+1}||^2 >= 2 ||h_t||^2: an exact doubling counts,
        # so `>` in place of `>=` fails the first case
        t = lb.AdversaryTranscript(d_x=3, log=RunLog(3, 3), h_sq=np.array(h_sq),
                                   final_state_norm=2.0)
        assert t.all_doubled is doubled


class TestDeterministicAdversary:
    def test_zero_controller_doubles_exactly(self):
        t = deterministic_adversary(zero_controller, 3)
        assert t.c_diag == [1.0, 2.0, 4.0]
        assert t.final_state_norm >= 4.0

    @pytest.mark.parametrize("name", sorted(BUILTIN_CONTROLLERS))
    def test_growth_and_system_norm(self, name):
        t = deterministic_adversary(BUILTIN_CONTROLLERS[name], 10)
        assert t.final_state_norm >= 2.0 ** 9
        assert t.system_norm <= 2.0 + 1e-12

    def test_doubling_recursion_exact(self):
        for name in sorted(BUILTIN_CONTROLLERS):
            t = deterministic_adversary(BUILTIN_CONTROLLERS[name], 12)
            for i, a in enumerate(t.a_next):
                assert abs(t.c_diag[i + 1]) == 2 * abs(t.c_diag[i]) + abs(a)

    def test_v_orthonormal_and_q_factorization(self):
        for name in sorted(BUILTIN_CONTROLLERS):
            t = deterministic_adversary(BUILTIN_CONTROLLERS[name], 10)
            D = np.diag(t.d_signs)
            P = np.roll(np.eye(10), 1, axis=1)  # P[i, i+1 mod d_x] = 1
            assert np.linalg.norm(t.V @ t.V.T - np.eye(10)) <= 1e-10
            assert np.linalg.norm(t.Q - D @ P @ t.V) <= 1e-10

    def test_trajectory_replays_through_assembled_system(self):
        t = deterministic_adversary(certainty_equivalent_controller, 8)
        M = t.Q.T @ t.V
        X, U = t.log.states(), t.log.controls()
        x = np.zeros(8)
        x[0] = 1.0
        for x_t, u_t in zip(X[:-1], U[:-1]):
            assert np.allclose(x, x_t, atol=1e-8 * max(1.0, np.linalg.norm(x_t)))
            x = M @ x + u_t
        assert np.allclose(x, X[-1], atol=1e-8 * np.linalg.norm(X[-1]))

    def test_nondeterministic_controller_rejected(self):
        def noisy_factory():
            rng = np.random.default_rng()
            return lambda hist: rng.normal(size=hist[-1].shape)

        with pytest.raises(NonDeterministicControllerError):
            deterministic_adversary(noisy_factory, 6)

    def test_dimension_precondition(self):
        with pytest.raises(ValueError):
            deterministic_adversary(zero_controller, 1)

    def test_non_finite_control_is_named_not_blamed_on_the_controller(self):
        # NaN never compares equal to itself, so the determinism check used
        # to report a deterministic NaN control as nondeterminism
        def nan_factory():
            return lambda hist: np.full_like(hist[-1], np.nan)

        with pytest.raises(NonFiniteValueError) as err:
            deterministic_adversary(nan_factory, 10)
        assert (err.value.what, err.value.step) == ("control", 1)

    @pytest.mark.parametrize("harness,d_x", [(deterministic_adversary, 10),
                                             (randomized_lb_trial, 40)])
    def test_control_of_the_wrong_length_is_named(self, harness, d_x):
        def short_factory():
            return lambda hist: np.zeros(len(hist[-1]) - 1)

        with pytest.raises(DimensionMismatchError) as err:
            harness(short_factory, d_x)
        assert (err.value.operand, err.value.expected, err.value.got) \
            == ("control", (d_x,), (d_x - 1,))

    def test_each_instance_owns_one_growing_history(self):
        # the controller and its witness each get one list for the whole
        # attack, one state longer on every call, never a rebuilt copy
        seen = []

        def spy_factory():
            calls = []
            seen.append(calls)

            def act(history):
                calls.append((history, len(history)))
                return negative_identity_controller()(history)

            return act

        d_x = 12
        deterministic_adversary(spy_factory, d_x)
        assert len(seen) == 2
        for calls in seen:
            assert len(calls) == d_x - 1
            assert len({id(h) for h, _ in calls}) == 1
            assert [n for _, n in calls] == list(range(1, d_x))
            assert len(calls[0][0]) == d_x  # the last state was appended too
        assert seen[0][0][0] is not seen[1][0][0]

    def test_controller_may_write_into_its_history(self):
        # a deterministic controller that zeroes the state it has read is
        # still deterministic: neither instance sees the other's writes, and
        # the transcript is that of the twin that leaves its history alone
        def reading(history):
            return 0.5 * history[-1]

        def writing_factory():
            def act(history):
                u = reading(history)
                history[-1][:] = 0.0
                return u

            return act

        got = deterministic_adversary(writing_factory, 8)
        want = deterministic_adversary(lambda: reading, 8)
        assert got.c_diag == want.c_diag and got.a_next == want.a_next
        assert got.total_cost == want.total_cost
        assert np.array_equal(got.log.states(), want.log.states())
        assert np.array_equal(got.log.controls(), want.log.controls())

    @pytest.mark.parametrize("name", ["zero", "negative_identity",
                                      "certainty_equivalent"])
    def test_system_norm_at_400(self, name):
        # frozen_random is left out: its diagonal coefficient overflows
        # (OverflowError) before d_x = 400; the "clustered" case of
        # TestSpectralNorm covers the matrix shape it would produce
        with np.errstate(over="ignore"):
            t = deterministic_adversary(BUILTIN_CONTROLLERS[name], 400)
        assert t.system_norm <= 2.0 + 1e-12

    @pytest.mark.parametrize("name", ["zero", "certainty_equivalent"])
    def test_growth_at_400(self, name):
        # no warning is suppressed: with these controllers neither ||x|| nor
        # x.x overflows at d_x = 400 (negative_identity's x.x does)
        t = deterministic_adversary(BUILTIN_CONTROLLERS[name], 400)
        assert t.final_state_norm >= 2.0 ** 399
        assert abs(t.c_diag[-1]) >= 2.0 ** 399
        assert t.system_norm <= 2.0 + 1e-12

    def test_frozen_random_is_deterministic(self):
        a = deterministic_adversary(frozen_random_controller, 8)
        b = deterministic_adversary(frozen_random_controller, 8)
        assert np.array_equal(a.log.states()[-1], b.log.states()[-1])

    def test_drift_is_a_typed_error(self):
        # frozen_random at d_x = 200 is the known drifting instance (recursion
        # and measured coefficient differ by ~2e-6 relative against the 1e-6
        # check): the harness either completes or reports the drift as a
        # library error, never as a bare AssertionError
        try:
            t = deterministic_adversary(frozen_random_controller, 200)
        except ConstructionDriftError as exc:
            assert "construction drifted" in str(exc)
        else:
            assert t.final_state_norm >= 2.0 ** 199


def _recorded_ce_history(d_x, seed):
    t = randomized_lb_trial(certainty_equivalent_controller, d_x, 40.0, seed=seed)
    return list(t.log.states())


def _deterministic_ce_history(d_x):
    t = deterministic_adversary(certainty_equivalent_controller, d_x)
    return list(t.log.states())


def _doubled(h_sq):
    # round t's flag: ||h_{t+1}||^2 >= 2 ||h_t||^2 (none for the last round)
    with np.errstate(over="ignore"):
        return h_sq[1:] >= 2.0 * h_sq[:-1]


class TestAgainstReference:
    """The growable-buffer paths against the implementations they replaced
    (tests/lowerbound_reference.py)."""

    @pytest.mark.parametrize("history", [
        pytest.param(lambda: _recorded_ce_history(800, 44), id="d_x=800"),
        pytest.param(lambda: _recorded_ce_history(200, 45), id="d_x=200"),
        # a repeated state makes X rank deficient, so the pinv cutoff bites
        pytest.param(lambda: (lambda h: h[:6] + [h[5]] + h[6:])(
            _recorded_ce_history(200, 46)), id="repeated-state"),
        pytest.param(lambda: [np.eye(50)[0]] * 8, id="constant-state"),
        # axis-aligned, mutually orthogonal states: every call after the
        # first skips pinv; the reference plays exactly 0 there, so the
        # relative bound below demands exact equality
        pytest.param(lambda: _deterministic_ce_history(40), id="deterministic"),
    ])
    def test_certainty_equivalent_controls(self, history):
        history = history()
        ref, new = ref_certainty_equivalent_controller(), \
            certainty_equivalent_controller()
        for t in range(1, len(history) + 1):
            u_ref, u_new = ref(history[:t]), new(history[:t])
            assert np.linalg.norm(u_new - u_ref) \
                <= 1e-13 * np.linalg.norm(u_ref)

    def test_certainty_equivalent_orthogonal_state_is_exactly_zero(self):
        # orthogonal but not axis-aligned: pinv leaves rounding noise of
        # order 1e-16 ||x|| where the least-squares answer is exactly 0
        history = [np.array(v, dtype=float) for v in
                   ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 5))]
        ref, new = ref_certainty_equivalent_controller(), \
            certainty_equivalent_controller()
        for t in range(1, len(history) + 1):
            x = history[t - 1]
            u_ref, u_new = ref(history[:t]), new(history[:t])
            assert np.all(u_new == 0.0)
            assert np.linalg.norm(u_ref) <= 1e-15 * np.linalg.norm(x)

    def test_certainty_equivalent_skips_pinv_only_on_orthogonal_states(
            self, monkeypatch):
        calls = []
        original = np.linalg.pinv

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", spy)
        deterministic_adversary(certainty_equivalent_controller, 200)
        assert calls == []  # 396 before the skip
        t = randomized_lb_trial(certainty_equivalent_controller, 200, 40.0,
                                seed=45)
        # one call per controller call after the first, whose fit is empty
        assert len(calls) == len(t.log) - 1 == 24

    def test_certainty_equivalent_rejects_a_skipped_state(self):
        act = certainty_equivalent_controller()
        x = np.ones(3)
        act([x])
        with pytest.raises(ValueError, match="history of 2 states"):
            act([x, x, x])

    def test_unit_outside_span(self, monkeypatch, rng):
        calls = []
        original = lb._unit_outside_span

        def spy(rows, col_sq):
            # the running column sums are bitwise those of a fresh sum
            assert col_sq.tobytes() == np.sum(rows * rows, axis=0).tobytes()
            calls.append((rows.copy(), col_sq.copy()))
            return original(rows, col_sq)

        monkeypatch.setattr(lb, "_unit_outside_span", spy)
        for name in sorted(BUILTIN_CONTROLLERS):
            for d_x in (40, 150, 200):
                try:
                    deterministic_adversary(BUILTIN_CONTROLLERS[name], d_x)
                except ConstructionDriftError:
                    pass
        # random orthonormal rows, and rows with exact ties
        extra = [np.linalg.qr(rng.normal(size=(dim, t)))[0].T
                 for t, dim in ((1, 2), (5, 9), (30, 40), (39, 40))]
        extra.append(np.eye(7)[[0, 3]])
        calls += [(rows, np.sum(rows * rows, axis=0)) for rows in extra]
        assert len(calls) > 1000
        for rows, col_sq in calls:
            dim = rows.shape[1]
            ref = ref_unit_outside_span(rows, dim)
            j_ref = int(np.argmax(np.linalg.norm(np.eye(dim) - rows.T @ rows,
                                                 axis=0)))
            assert int(np.argmax(1.0 - np.sum(rows * rows, axis=0))) == j_ref
            assert np.abs(original(rows, col_sq) - ref).max() <= 1e-14

    @pytest.mark.parametrize("name", ["zero", "negative_identity",
                                      "frozen_random"])
    @pytest.mark.parametrize("d_x,seed", [(200, 7), (800, 8)])
    def test_randomized_transcripts(self, monkeypatch, name, d_x, seed):
        new = randomized_lb_trial(BUILTIN_CONTROLLERS[name], d_x, 40.0, seed=seed)
        monkeypatch.setattr(lb, "SubspaceTracker", RefSubspaceTracker)
        ref = randomized_lb_trial(BUILTIN_CONTROLLERS[name], d_x, 40.0, seed=seed)
        assert new.total_cost == ref.total_cost
        assert new.system_norm == ref.system_norm
        assert _close_to_svd_norm(new.A, new.system_norm)
        X = new.log.states()
        assert np.array_equal(X, ref.log.states())
        assert np.array_equal(new.log.controls(), ref.log.controls())
        assert len(new.h_sq) == len(ref.h_sq) == len(X)
        # h_sq / ||x||^2 reaches 5e-15, so only an absolute bound means
        # anything
        for a, b, x in zip(new.h_sq, ref.h_sq, X):
            assert abs(a - b) <= 1e-12 * float(x @ x)
        assert np.array_equal(_doubled(new.h_sq), _doubled(ref.h_sq))

    @pytest.mark.parametrize("d_x", [40, 150, 200])
    def test_deterministic_coefficients(self, d_x):
        # the reference restacks Q and V every round and uses the reference
        # escape direction and certainty-equivalent controller
        for name in sorted(BUILTIN_CONTROLLERS):
            factory = BUILTIN_CONTROLLERS[name]
            ref_factory = (ref_certainty_equivalent_controller
                           if name == "certainty_equivalent" else factory)
            try:
                ref = ref_deterministic_adversary(ref_factory, d_x)
            except ConstructionDriftError:
                # frozen_random at d_x = 200 drifts on both paths
                assert (name, d_x) == ("frozen_random", 200)
                with pytest.raises(ConstructionDriftError):
                    deterministic_adversary(factory, d_x)
                continue
            new = deterministic_adversary(factory, d_x)
            assert new.c_diag == ref.c_diag
            assert new.d_signs == ref.d_signs
            assert new.a_next == ref.a_next
            assert new.total_cost == ref.total_cost
            assert np.array_equal(new.log.states(), np.array(ref.xs))
            assert np.array_equal(new.log.controls(), np.array(ref.us))
            assert np.array_equal(new.V, ref.V) and np.array_equal(new.Q, ref.Q)
            assert abs(new.system_norm - ref.system_norm) \
                <= 64 * EPS * ref.system_norm
            assert new.system_norm <= 2.0 + 1e-12

    @pytest.mark.parametrize("d_x,seed", [(200, s) for s in range(4)]
                             + [(800, 44)])
    def test_randomized_certainty_equivalent(self, d_x, seed):
        # the closed loop amplifies rounding through cond(X) (up to 1e79), so
        # states may differ in late digits; the attack's outcome may not
        new = randomized_lb_trial(certainty_equivalent_controller, d_x, 40.0,
                                  seed=seed)
        ref = randomized_lb_trial(ref_certainty_equivalent_controller, d_x, 40.0,
                                  seed=seed)
        assert np.array_equal(_doubled(new.h_sq), _doubled(ref.h_sq))
        threshold = 2.0 ** (len(new.log) - 1)
        assert (new.final_state_norm**2 >= threshold) \
            == (ref.final_state_norm**2 >= threshold)


def _render_steps_csv(ref, phase):
    """steps.csv of a reference transcript as the CLI wrote it before the
    harnesses logged into a RunLog: per round, np.linalg.norm of x_t and u_t,
    the cost x_t.x_t + u_t.u_t and the running cost, each as %.17g."""
    lines = ["t,phase,state_norm,control_norm,cost,cumulative_cost"]
    running = 0.0
    for t, (x, u) in enumerate(zip(ref.xs, ref.us, strict=True), 1):
        cost = float(x @ x + u @ u)
        running += cost
        numbers = (np.linalg.norm(x), np.linalg.norm(u), cost, running)
        lines.append(f"{t},{phase}," + ",".join(format(float(v), ".17g")
                                                for v in numbers))
    return "\n".join(lines) + "\n"


_HARNESSES = {
    "lowerbound-rand": (lambda f, d_x: randomized_lb_trial(f, d_x, 40.0, seed=3),
                        lambda f, d_x: ref_randomized_lb_trial(f, d_x, 40.0, seed=3)),
    "lowerbound-det": (deterministic_adversary, ref_deterministic_adversary),
}


class TestRunLogRecord:
    """Both harnesses log into lds.RunLog, and the CLI writes steps.csv from
    it alone; the reference keeps its rounds in lists and sums its own cost."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_CONTROLLERS))
    @pytest.mark.parametrize("subcommand", sorted(_HARNESSES))
    def test_steps_csv_is_the_reference_rendering(self, tmp_path, subcommand,
                                                  name):
        d_x = 20
        cfg = {"experiment": subcommand, "d_x": d_x, "controller": name, "seed": 3}
        cli.dispatch(subcommand, cfg, str(tmp_path))
        ref = _HARNESSES[subcommand][1](BUILTIN_CONTROLLERS[name], d_x)
        assert (tmp_path / "steps.csv").read_bytes() \
            == _render_steps_csv(ref, subcommand).encode()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["total_cost"] == summary["cumulative_cost"] == ref.total_cost

    @pytest.mark.parametrize("name", sorted(BUILTIN_CONTROLLERS))
    @pytest.mark.parametrize("subcommand,d_x,rounds", [
        ("lowerbound-rand", 80, 10), ("lowerbound-det", 20, 20)])
    def test_log_rounds_phases_and_cost(self, subcommand, d_x, rounds, name):
        harness, reference = _HARNESSES[subcommand]
        t = harness(BUILTIN_CONTROLLERS[name], d_x)
        ref = reference(BUILTIN_CONTROLLERS[name], d_x)
        log = t.log
        assert len(log) == len(t.h_sq) == rounds  # T = d_x / 8, or d_x
        assert log.phases == [subcommand] * rounds
        assert log.cumulative_cost == t.total_cost == ref.total_cost
        assert log.phase_costs == {subcommand: ref.total_cost}
        assert log.costs().tolist() == [float(x @ x + u @ u)
                                        for x, u in zip(ref.xs, ref.us)]
        assert np.array_equal(log.states(), np.array(ref.xs))
        assert np.array_equal(log.controls(), np.array(ref.us))
        assert np.array_equal(log.disturbances(), np.zeros((rounds, d_x)))
        assert t.final_state_norm == ref.final_state_norm
