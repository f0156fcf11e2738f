"""Reference implementations of the lower-bound harness helpers: the
certainty-equivalent controller that rebuilds X and Y from the history and
forms A_hat = Y pinv(X), the escape direction taken from the full
I - rows'rows, and the subspace tracker that re-stacks its basis on every
extend. The growable-buffer paths in blackbox_lds.lowerbound are checked
against them."""

import numpy as np

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

    def extend(self, v):
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
