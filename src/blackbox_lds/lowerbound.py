"""Attack harnesses showing that black-box control pays an exponential
startup cost: a randomized Gaussian-system adversary (the state component
orthogonal to everything the controller has seen doubles per round with high
probability) and a deterministic adaptive adversary that constructs the
system online, row by row, so that the state provably reaches 2^{d_x - 1}.

Both harnesses attack an arbitrary user-supplied controller, given as a
zero-argument factory returning a deterministic-or-not callback
history -> control, where history is the list of observed states x_1..x_t.
Each controller instance owns one history list for the whole attack: the
harness appends a private copy of every new state to it, so whatever the
instance writes into its list is seen by nobody else.

Cost per round t, besides the attacked controller: the randomized trial
steps a dense system (O(d_x^2)) and keeps its subspace tracker in
O(d_x t); the deterministic adversary's bookkeeping is O(d_x t), including
an escape direction when the control adds nothing new (from running column
norms of V, with no t-by-d_x temporary), with its Q and V rows kept in
growable buffers. The Python work of a round (history appends, transcript
records) is a constant number of numpy calls in both harnesses; it does not
grow with t. The built-in certainty-equivalent controller costs O(d_x t)
when the new state is orthogonal to every observed one, as on every round
after the first of the deterministic adversary, and O(d_x t^2) otherwise (an
SVD of the d_x-by-t state matrix, as in the randomized trial); the other
built-ins cost at most one d_x-by-d_x product.

Each harness reports one d_x-by-d_x spectral norm (||A|| or ||Q'V||), once
per trial. It is taken by `_spectral_norm` from the top eigenvalue of a Gram
matrix, which at d_x = 800 costs ~75 ms against ~190 ms for the SVD of
`lds.spectral_norm` (one BLAS thread); that SVD stays where the matrices are
small (the phase-2 certificates) and a few ulp matter more than time.

The growable row buffer `_Rows` behind these rows now lives in lds, next to
the run log that shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import (ConfigError, ConstructionDriftError, DimensionMismatchError,
                     NonDeterministicControllerError, NonFiniteValueError)
from .lds import _NORM_SAFE_RANGE, _Rows

ControllerFn = Callable[[List[np.ndarray]], np.ndarray]
ControllerFactory = Callable[[], ControllerFn]

_ORTHO_TOL = 1e-10


def _spectral_norm(m: np.ndarray) -> float:
    """||m||_2 as sqrt(lambda_max) of the smaller Gram matrix of m: one
    SYRK-shaped product and one symmetric eigenvalue solve, about 2.5x
    cheaper than the SVD behind np.linalg.norm(m, 2) and within a few ulp of
    it. A largest entry outside lds._NORM_SAFE_RANGE (or a non-finite one)
    falls back to the SVD; an empty or zero matrix has norm 0."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    # max/min reduce in place, so no second d_x^2 array (like |m|) is made
    peak = max(float(m.max()), -float(m.min()))
    if peak == 0.0:
        return 0.0
    if not _NORM_SAFE_RANGE[0] <= peak <= _NORM_SAFE_RANGE[1]:
        return float(np.linalg.norm(m, 2))
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


class SubspaceTracker:
    """Orthonormal basis of span(x_1..x_t, u_1..u_t), grown incrementally by
    Gram-Schmidt with one reorthogonalization pass.

    The basis vectors are the rows of a growable buffer, so `residual` and
    `extend` cost O(dim * rank) and the basis is never copied per call;
    `basis` is the (dim, rank) view of it."""

    def __init__(self, dim: int):
        self.dim = dim
        self._rows = _Rows(dim, max_rows=dim)

    @property
    def rank(self) -> int:
        return self._rows.n

    @property
    def basis(self) -> np.ndarray:
        return self._rows.view.T

    def residual(self, x) -> np.ndarray:
        """Component of x orthogonal to the tracked span; its norm equals the
        norm of the coordinates of x outside the span."""
        x = np.asarray(x, dtype=float)
        rows = self._rows.view
        r = x - rows.T @ (rows @ x)
        r = r - rows.T @ (rows @ r)
        return r

    def extend(self, v, residual=None) -> bool:
        """Add v to the span; returns True if the rank grew. `residual`, if
        given, must be self.residual(v) taken since the span last changed;
        it saves computing it again."""
        v = np.asarray(v, dtype=float)
        r = self.residual(v) if residual is None else residual
        n = np.linalg.norm(r)
        if n <= _ORTHO_TOL * max(1.0, np.linalg.norm(v)) or self.rank >= self.dim:
            return False
        self._rows.append(r / n)
        return True


def sample_gaussian_system(d_x: int, gamma: float, seed) -> np.ndarray:
    """A with i.i.d. N(0, gamma/d_x) entries from the seeded generator; a
    d_x < 1 or a gamma not finite and > 0 raises ConfigError naming it."""
    if d_x < 1:
        raise ConfigError("d_x", "d_x must be >= 1")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError("gamma", "gamma must be finite and > 0")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, math.sqrt(gamma / d_x), size=(d_x, d_x))


@dataclass
class TranscriptStep:
    t: int
    x: np.ndarray
    u: np.ndarray
    h_sq: float
    doubled: Optional[bool]  # ||h_{t+1}||^2 >= 2 ||h_t||^2; None for the last step


@dataclass
class AdversaryTranscript:
    kind: str  # "randomized" | "deterministic"
    d_x: int
    steps: list
    final_state_norm: float
    total_cost: float
    seed: Optional[int] = None
    gamma: Optional[float] = None
    system_norm: Optional[float] = None  # ||A|| or ||Q'V||
    A: Optional[np.ndarray] = None
    # deterministic-construction artifacts
    V: Optional[np.ndarray] = None
    Q: Optional[np.ndarray] = None
    D: Optional[np.ndarray] = None
    P: Optional[np.ndarray] = None
    c_diag: list = field(default_factory=list)   # c_t^t
    a_next: list = field(default_factory=list)   # a_{t+1}^t
    d_signs: list = field(default_factory=list)  # d_t

    @property
    def h_sq(self) -> np.ndarray:
        return np.array([s.h_sq for s in self.steps])

    @property
    def all_doubled(self) -> bool:
        return all(s.doubled for s in self.steps if s.doubled is not None)


def randomized_lb_trial(controller_factory: ControllerFactory, d_x: int,
                        gamma: float = 40.0, seed=0) -> AdversaryTranscript:
    """One trial against a Gaussian system A ~ N(d_x, d_x, gamma/d_x):
    simulate x_{t+1} = A x_t + u_t from x_1 = e_1 for T = floor(d_x/8) rounds
    with costs ||x||^2 + ||u||^2, tracking the unseen-subspace residual h_t
    and whether it doubled. Round t costs O(d_x^2) for A x_t and O(d_x t)
    for the tracker (two residuals: h_t, reused to extend the span by x_t,
    and that of u_t), plus the controller's call. A control that is not d_x
    long raises DimensionMismatchError("control").

    ||A|| is taken once, right after sampling and before the controller is
    built: its Gram matrix and the eigensolver's copy of it (two d_x^2
    arrays) are freed before a controller can allocate d_x^2 state of its
    own (frozen_random's R), so they never add to the trial's peak memory."""
    A = sample_gaussian_system(d_x, gamma, seed)
    system_norm = _spectral_norm(A)
    controller = controller_factory()
    T = max(d_x // 8, 1)
    tracker = SubspaceTracker(d_x)
    x = np.zeros(d_x)
    x[0] = 1.0
    history = [x.copy()]
    steps = []
    h_prev_sq = None
    total_cost = 0.0
    for t in range(1, T + 1):
        h = tracker.residual(x)
        h_sq = float(h @ h)
        if h_prev_sq is not None:
            steps[-1].doubled = bool(h_sq >= 2.0 * h_prev_sq)
        u = np.asarray(controller(history), dtype=float).reshape(-1)
        if u.shape != x.shape:
            raise DimensionMismatchError("control", x.shape, u.shape)
        total_cost += float(x @ x + u @ u)
        steps.append(TranscriptStep(t=t, x=x, u=u.copy(), h_sq=h_sq,
                                    doubled=None))
        h_prev_sq = h_sq
        tracker.extend(x, residual=h)
        tracker.extend(u)
        if t < T:
            x = A @ x + u
            history.append(x.copy())
    return AdversaryTranscript(
        kind="randomized", d_x=d_x, steps=steps,
        final_state_norm=float(np.linalg.norm(steps[-1].x)),
        total_cost=total_cost, seed=seed, gamma=gamma,
        system_norm=system_norm, A=A)


def _unit_outside_span(rows: np.ndarray, col_sq: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to the given orthonormal rows:
    the standard basis vector with the largest residual, projected and
    normalized. The residual of e_j has squared norm 1 - col_sq[j], where
    col_sq[j] = ||rows[:, j]||^2 is kept by the caller as rows are added, so
    only the chosen residual is built: O(dim * len(rows)), with no
    len(rows)-by-dim temporary."""
    j = int(np.argmax(1.0 - col_sq))
    r = -(rows.T @ rows[:, j])
    r[j] += 1.0
    norm = np.linalg.norm(r)
    if norm <= _ORTHO_TOL:
        raise ValueError("no direction left outside the span")
    return r / norm


def _sign(v: float) -> float:
    # sign(0) fixed to +1: any fixed choice preserves the doubling recursion
    return 1.0 if v >= 0.0 else -1.0


def deterministic_adversary(controller_factory: ControllerFactory,
                            d_x: int) -> AdversaryTranscript:
    """Adaptive construction defeating any deterministic controller.

    The system is x_{t+1} = Q'V x_t + u_t with orthonormal V and Q = D P V
    built online: V_1 = e_1'; after seeing u_t, the new direction y_t is the
    normalized component of u_t outside span(V_1..V_t) (or an arbitrary unit
    vector there when u_t adds nothing new), Q_t = d_t y_t' with
    d_t = sign(c_t^t) sign(a_{t+1}^t) * 2, and V_{t+1} = y_t'. Writing
    x_t = sum_i c_i^t V_i' + c_t^t y_{t-1}, the choice of d_t forces
    |c_{t+1}^{t+1}| = 2 |c_t^t| + |a_{t+1}^t|, so ||x_{d_x}|| >= 2^{d_x - 1},
    while ||Q'V|| <= 2. Only rows fixed so far are ever exercised, so the
    trajectory is independent of the rows chosen later.

    Determinism of the controller is verified by running two independently
    constructed instances, the controller and its witness, on the same
    states and comparing controls. Each instance owns one history list for
    the whole attack, and each round appends one private copy of x_{t+1} to
    each list, so neither instance sees the other's writes and the harness's
    per-round work does not grow with t. Round t costs O(d_x t) besides the
    two controller calls: the Q and V rows are appended to growable buffers,
    never restacked, and the escape direction reads running column sums of
    squares of V instead of summing V * V again. ||Q'V|| is taken once, after
    the last round, by `_spectral_norm`.

    d_x < 2 raises ConfigError("d_x"), a control not d_x long
    DimensionMismatchError("control"), and a NaN or an infinity in a control
    (never equal to itself) NonFiniteValueError("control", t).
    """
    if d_x < 2:
        raise ConfigError("d_x", "d_x must be >= 2")
    controller = controller_factory()
    witness = controller_factory()
    V_rows = _Rows(d_x, max_rows=d_x)
    V_rows.append(np.eye(1, d_x)[0])  # V_1 = e_1'
    # ||V[:, j]||^2 for the escape direction, summed in row order as
    # np.sum(V * V, axis=0) sums them; e_1 * e_1 = e_1 so far
    V_col_sq = np.eye(1, d_x)[0]
    Q_rows = _Rows(d_x, max_rows=d_x)
    d_signs = []
    c_diag = [1.0]  # c_1^1: x_1 = e_1 = V_1'
    a_next = []
    x = np.zeros(d_x)
    x[0] = 1.0
    history = [x.copy()]
    witness_history = [x.copy()]
    steps = []
    total_cost = 0.0
    for t in range(1, d_x):
        u = np.asarray(controller(history), dtype=float).reshape(-1)
        u_check = np.asarray(witness(witness_history), dtype=float).reshape(-1)
        if u.shape != x.shape:
            raise DimensionMismatchError("control", x.shape, u.shape)
        if u_check.shape != u.shape or not np.array_equal(u, u_check):
            if not (np.isfinite(u).all() and np.isfinite(u_check).all()):
                raise NonFiniteValueError("control", t)
            raise NonDeterministicControllerError(
                f"controller produced different controls at step {t}")
        V = V_rows.view
        # y_t: new orthonormal direction extracted from u_t
        coeffs = V @ u
        r = u - V.T @ coeffs
        rnorm = np.linalg.norm(r)
        if rnorm > _ORTHO_TOL * max(1.0, np.linalg.norm(u)):
            y = r / rnorm
            y = y - V.T @ (V @ y)
            y = y / np.linalg.norm(y)
        else:
            y = _unit_outside_span(V, V_col_sq)
        a_t = float(y @ u)
        c_t = c_diag[-1]
        d_t = _sign(c_t) * _sign(a_t) * 2.0
        Q_rows.append(d_t * y)
        d_signs.append(d_t)
        a_next.append(a_t)
        total_cost += float(x @ x + u @ u)
        steps.append(TranscriptStep(t=t, x=x, u=u.copy(),
                                    h_sq=c_t * c_t, doubled=None))
        # x_{t+1} = Q'V x_t + u_t; x_t lives in span(V_1..V_t), so only the
        # rows fixed so far contribute
        x = Q_rows.view.T @ (V @ x) + u
        V_rows.append(y)
        V_col_sq += y * y
        history.append(x.copy())
        witness_history.append(x.copy())
        # the diagonal coefficient obeys c_{t+1} = c_t d_t + a_t; the signs
        # make the terms add constructively, so |c| at least doubles
        c_diag.append(c_t * d_t + a_t)
    total_cost += float(x @ x)  # terminal state cost, zero-control round
    steps.append(TranscriptStep(t=d_x, x=x, u=np.zeros(d_x),
                                h_sq=c_diag[-1] * c_diag[-1], doubled=None))
    V = V_rows.view
    measured = float(V[d_x - 1] @ x)
    if abs(measured - c_diag[-1]) > 1e-6 * max(1.0, abs(c_diag[-1])):
        raise ConstructionDriftError(
            "construction drifted: recursion and measured coefficients "
            f"disagree ({c_diag[-1]} vs {measured})")
    # complete the system: Q_{d_x} = 2 V_1, Q = D P V with the cyclic shift P
    Q_rows.append(2.0 * V[0])
    d_signs.append(2.0)
    Q = Q_rows.view
    D = np.diag(d_signs)
    P = np.zeros((d_x, d_x))
    for i in range(d_x):
        P[i, (i + 1) % d_x] = 1.0
    return AdversaryTranscript(
        kind="deterministic", d_x=d_x, steps=steps,
        final_state_norm=float(np.linalg.norm(x)),
        total_cost=total_cost, system_norm=_spectral_norm(Q.T @ V),
        V=V, Q=Q, D=D, P=P, c_diag=c_diag, a_next=a_next, d_signs=d_signs)


# -- built-in controllers to attack ------------------------------------------

def zero_controller() -> ControllerFn:
    """u_t = 0."""
    return lambda history: np.zeros_like(history[-1])


def negative_identity_controller() -> ControllerFn:
    """u_t = -x_t."""
    return lambda history: -history[-1]


def certainty_equivalent_controller() -> ControllerFn:
    """Least-squares certainty equivalence: fit x_{t+1} - u_t = A x_t on the
    observed transitions and play u_t = -A_hat x_t with A_hat = Y pinv(X).

    The product is evaluated as -(Y (pinv(X) x)), so the d_x-by-d_x A_hat is
    never formed, and each call appends its one new transition to growable
    buffers instead of rebuilding X and Y from the history. Since
    pinv(X) x = (X'X)^+ (X'x), a state orthogonal to every observed state
    (X'x exactly 0) gets u = 0 after one O(d_x t) product; this is every call
    after the first in the deterministic adversary. Any other call after t
    observed states costs O(d_x t^2), the SVD inside pinv. The controller
    expects the history to grow by one state per call, as both harnesses do.
    """
    X = Y = None  # transitions as rows: x_i and x_{i+1} - u_i
    last_u = None
    calls = 0

    def act(history):
        nonlocal X, Y, last_u, calls
        if len(history) != calls + 1:
            raise ValueError(f"expected a history of {calls + 1} states, "
                             f"got {len(history)}")
        calls += 1
        x = history[-1]
        if last_u is None:
            X, Y = _Rows(len(x)), _Rows(len(x))
            u = np.zeros_like(x)
        else:
            X.append(history[-2])
            Y.append(x - last_u)
            # pinv(X') x = (X X')^+ (X x): a state orthogonal to every
            # observed one is fitted by exactly 0, with no SVD
            if (X.view @ x).any():
                u = -(Y.view.T @ (np.linalg.pinv(X.view.T) @ x))
            else:
                u = -np.zeros_like(x)  # -0.0 entries, as -(Y' 0) gives
        last_u = u
        return u

    return act


def frozen_random_controller(seed: int = 12345, scale: float = 1.0) -> ControllerFn:
    """Linear feedback u_t = R x_t with R drawn once from a fixed seed."""
    state = {"R": None}

    def act(history):
        x = history[-1]
        if state["R"] is None:
            rng = np.random.default_rng(seed)
            d = x.shape[0]
            state["R"] = rng.normal(0.0, scale / math.sqrt(d), size=(d, d))
        return state["R"] @ x

    return act


BUILTIN_CONTROLLERS = {
    "zero": zero_controller,
    "negative_identity": negative_identity_controller,
    "certainty_equivalent": certainty_equivalent_controller,
    "frozen_random": frozen_random_controller,
}
