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
steps a dense system (O(d_x^2)) and keeps its subspace tracker in O(d_x t);
the deterministic adversary's bookkeeping is O(d_x t), its Q and V rows in
growable buffers and its escape direction (when the control adds nothing
new) read from running column norms of V. The rest of a round (history
appends, one run-log row) is a constant number of numpy calls. The built-in
certainty-equivalent controller costs O(d_x t) on a state orthogonal to
every observed one (every round after the first of the deterministic
adversary) and O(d_x t^2) otherwise, an SVD of the d_x-by-t state matrix;
the other built-ins cost at most one d_x-by-d_x product.

Each trial takes one d_x-by-d_x spectral norm (||A|| or ||Q'V||) by
`_spectral_norm`, from the top eigenvalue of a Gram matrix: ~75 ms at
d_x = 800 against ~190 ms for the SVD of `lds.spectral_norm` (one BLAS
thread), which stays where matrices are small and a few ulp matter more.

Each harness records its rounds in an `lds.RunLog`, as the plant does: x_t,
u_t and the cost ||x_t||^2 + ||u_t||^2, no disturbance row (w_t = 0), and
the subcommand as the phase, so a trial's total cost is the log's running
sum. The transcript keeps the log next to the per-round ||h_t||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import (ConfigError, ConstructionDriftError, DimensionMismatchError,
                     NonDeterministicControllerError, NonFiniteValueError)
from .lds import _NORM_SAFE_RANGE, RunLog, _Rows

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
        return r - rows.T @ (rows @ r)

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
class AdversaryTranscript:
    """One attack: its rounds in `log` and h_sq[t-1] = ||h_t||^2 for each
    round t (for the deterministic adversary, (c_t^t)^2)."""

    d_x: int
    log: RunLog
    h_sq: np.ndarray
    final_state_norm: float
    gamma: Optional[float] = None
    system_norm: Optional[float] = None  # ||A|| or ||Q'V||
    A: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None  # V and Q: the deterministic construction
    Q: Optional[np.ndarray] = None
    c_diag: list = field(default_factory=list)   # c_t^t
    a_next: list = field(default_factory=list)   # a_{t+1}^t
    d_signs: list = field(default_factory=list)  # d_t; Q = diag(d_signs) P V

    @property
    def total_cost(self) -> float:
        return self.log.cumulative_cost

    @property
    def all_doubled(self) -> bool:
        """||h_{t+1}||^2 >= 2 ||h_t||^2 on every round but the last."""
        with np.errstate(over="ignore"):  # 2 ||h_t||^2 may round up to inf
            return bool(np.all(self.h_sq[1:] >= 2.0 * self.h_sq[:-1]))


def _log_round(log: RunLog, x, u, phase: str) -> None:
    # round (x_t, u_t) costs ||x_t||^2 + ||u_t||^2, with no disturbance
    log.append(x, u, None, float(x @ x + u @ u), phase)


def randomized_lb_trial(controller_factory: ControllerFactory, d_x: int,
                        gamma: float = 40.0, seed=0) -> AdversaryTranscript:
    """One trial against a Gaussian system A ~ N(d_x, d_x, gamma/d_x):
    simulate x_{t+1} = A x_t + u_t from x_1 = e_1 for T = floor(d_x/8) rounds,
    logging each with its unseen-subspace residual ||h_t||^2. Round t costs O(d_x^2) for A x_t and O(d_x t)
    for the tracker (two residuals: h_t, reused to extend the span by x_t,
    and that of u_t), plus the controller's call. A control that is not d_x
    long raises DimensionMismatchError("control").

    ||A|| is taken before the controller is built, so its Gram matrix and the
    eigensolver's copy are freed before a controller allocates d_x^2 state
    (frozen_random's R) and never add to the trial's peak memory."""
    A = sample_gaussian_system(d_x, gamma, seed)
    system_norm = _spectral_norm(A)
    controller = controller_factory()
    T = max(d_x // 8, 1)
    tracker = SubspaceTracker(d_x)
    x = np.eye(1, d_x)[0]  # e_1
    history = [x.copy()]
    log = RunLog(d_x, d_x, seed=seed)
    h_sq = []
    for t in range(1, T + 1):
        h = tracker.residual(x)
        h_sq.append(float(h @ h))
        u = np.asarray(controller(history), dtype=float).reshape(-1)
        if u.shape != x.shape:
            raise DimensionMismatchError("control", x.shape, u.shape)
        tracker.extend(x, residual=h)
        tracker.extend(u)
        _log_round(log, x, u, "lowerbound-rand")
        if t < T:
            x = A @ x + u
            history.append(x.copy())
    return AdversaryTranscript(
        d_x=d_x, log=log, h_sq=np.array(h_sq),
        final_state_norm=float(np.linalg.norm(x)), gamma=gamma,
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
    x = np.eye(1, d_x)[0]  # x_1 = e_1
    history = [x.copy()]
    witness_history = [x.copy()]
    log = RunLog(d_x, d_x)
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
        _log_round(log, x, u, "lowerbound-det")
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
    _log_round(log, x, np.zeros(d_x), "lowerbound-det")  # zero-control last round
    V = V_rows.view
    measured = float(V[d_x - 1] @ x)
    if abs(measured - c_diag[-1]) > 1e-6 * max(1.0, abs(c_diag[-1])):
        raise ConstructionDriftError(
            "construction drifted: recursion and measured coefficients "
            f"disagree ({c_diag[-1]} vs {measured})")
    # complete the system: Q_{d_x} = 2 V_1, so Q = diag(d_signs) P V, P a cyclic shift
    Q_rows.append(2.0 * V[0])
    d_signs.append(2.0)
    Q = Q_rows.view
    return AdversaryTranscript(
        d_x=d_x, log=log, h_sq=np.array([c * c for c in c_diag]),
        final_state_norm=float(np.linalg.norm(x)),
        system_norm=_spectral_norm(Q.T @ V), V=V, Q=Q, c_diag=c_diag,
        a_next=a_next, d_signs=d_signs)


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
    R = None

    def act(history):
        nonlocal R
        if R is None:
            d = len(history[-1])
            R = np.random.default_rng(seed).normal(0.0, scale / math.sqrt(d), (d, d))
        return R @ history[-1]

    return act


BUILTIN_CONTROLLERS = {
    "zero": zero_controller,
    "negative_identity": negative_identity_controller,
    "certainty_equivalent": certainty_equivalent_controller,
    "frozen_random": frozen_random_controller,
}
