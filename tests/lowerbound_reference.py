"""Reference implementations of the lower-bound harness helpers: the
certainty-equivalent controller that rebuilds X and Y from the history and
forms A_hat = Y pinv(X), the escape direction taken from the full
I - rows'rows, the subspace tracker that re-stacks its basis and measures
the residual again on every extend, and the deterministic adversary that restacks its Q and V rows every
round and takes ||Q'V|| by SVD. The growable-buffer paths in
blackbox_lds.lowerbound are checked against them."""

import numpy as np

from blackbox_lds.errors import (
    ConstructionDriftError,
    NonDeterministicControllerError,
)
from blackbox_lds.lowerbound import AdversaryTranscript, TranscriptStep, _sign

_ORTHO_TOL = 1e-10


class RefSubspaceTracker:
    def __init__(self, dim):
        self.dim = dim
        self.basis = np.zeros((dim, 0))

    @property
    def rank(self):
        return self.basis.shape[1]

    def residual(self, x):
        x = np.asarray(x, dtype=float)
        r = x - self.basis @ (self.basis.T @ x)
        r = r - self.basis @ (self.basis.T @ r)
        return r

    def extend(self, v, residual=None):
        # residual is accepted for signature parity and ignored: the
        # reference always measures the residual again
        v = np.asarray(v, dtype=float)
        r = self.residual(v)
        n = np.linalg.norm(r)
        if n <= _ORTHO_TOL * max(1.0, np.linalg.norm(v)) or self.rank >= self.dim:
            return False
        self.basis = np.hstack([self.basis, (r / n).reshape(-1, 1)])
        return True


def ref_unit_outside_span(rows, dim):
    residuals = np.eye(dim) - rows.T @ rows  # column j = residual of e_j
    norms = np.linalg.norm(residuals, axis=0)
    j = int(np.argmax(norms))
    if norms[j] <= _ORTHO_TOL:
        raise ValueError("no direction left outside the span")
    return residuals[:, j] / norms[j]


def ref_certainty_equivalent_controller():
    past_controls = []

    def act(history):
        x = history[-1]
        if len(history) >= 2:
            X = np.array(history[:-1]).T
            Y = (np.array(history[1:]) - np.array(past_controls)).T
            A_hat = Y @ np.linalg.pinv(X)
            u = -A_hat @ x
        else:
            u = np.zeros_like(x)
        past_controls.append(u)
        return u

    return act


def ref_deterministic_adversary(controller_factory, d_x):
    if d_x < 2:
        raise ValueError("d_x must be >= 2")
    controller = controller_factory()
    witness = controller_factory()
    V_rows = np.zeros((1, d_x))
    V_rows[0, 0] = 1.0  # V_1 = e_1'
    Q_rows = []
    d_signs = []
    c_diag = [1.0]  # c_1^1: x_1 = e_1 = V_1'
    a_next = []
    x = np.zeros(d_x)
    x[0] = 1.0
    history = [x.copy()]
    steps = []
    total_cost = 0.0
    for t in range(1, d_x):
        u = np.asarray(controller(history), dtype=float).reshape(-1)
        u_check = np.asarray(witness([h.copy() for h in history]),
                             dtype=float).reshape(-1)
        if u.shape != u_check.shape or not np.array_equal(u, u_check):
            raise NonDeterministicControllerError(
                f"controller produced different controls at step {t}")
        # y_t: new orthonormal direction extracted from u_t
        coeffs = V_rows @ u
        r = u - V_rows.T @ coeffs
        rnorm = np.linalg.norm(r)
        if rnorm > _ORTHO_TOL * max(1.0, np.linalg.norm(u)):
            y = r / rnorm
            y = y - V_rows.T @ (V_rows @ y)
            y = y / np.linalg.norm(y)
        else:
            y = ref_unit_outside_span(V_rows, d_x)
        a_t = float(y @ u)
        c_t = c_diag[-1]
        d_t = _sign(c_t) * _sign(a_t) * 2.0
        Q_rows.append(d_t * y)
        d_signs.append(d_t)
        a_next.append(a_t)
        total_cost += float(x @ x + u @ u)
        steps.append(TranscriptStep(t=t, x=x.copy(), u=u.copy(),
                                    h_sq=c_t**2, doubled=None))
        coords = V_rows @ x
        x = np.array(Q_rows).T @ coords + u
        V_rows = np.vstack([V_rows, y])
        history.append(x.copy())
        c_diag.append(c_t * d_t + a_t)
    total_cost += float(x @ x)  # terminal state cost, zero-control round
    steps.append(TranscriptStep(t=d_x, x=x.copy(), u=np.zeros(d_x),
                                h_sq=c_diag[-1] ** 2, doubled=None))
    measured = float(V_rows[d_x - 1] @ x)
    if abs(measured - c_diag[-1]) > 1e-6 * max(1.0, abs(c_diag[-1])):
        raise ConstructionDriftError(
            "construction drifted: recursion and measured coefficients "
            f"disagree ({c_diag[-1]} vs {measured})")
    Q_rows.append(2.0 * V_rows[0])
    d_signs.append(2.0)
    V = V_rows
    Q = np.array(Q_rows)
    D = np.diag(d_signs)
    P = np.zeros((d_x, d_x))
    for i in range(d_x):
        P[i, (i + 1) % d_x] = 1.0
    return AdversaryTranscript(
        kind="deterministic", d_x=d_x, steps=steps,
        final_state_norm=float(np.linalg.norm(x)),
        total_cost=total_cost, system_norm=float(np.linalg.norm(Q.T @ V, 2)),
        V=V, Q=Q, D=D, P=P, c_diag=c_diag, a_next=a_next, d_signs=d_signs)
