"""Phase 3: online nonstochastic control with a disturbance-action controller.

Controls are u_t = K x_t + sum_i M^{i-1} w_hat_{t-i} with the history
matrices M updated by projected online gradient descent on a surrogate loss:
the cost of the H-step zero-reset counterfactual trajectory replayed through
the estimated dynamics. States are affine in M, so the surrogate is convex
and its gradient is exact chain rule through the unrolled recursion.

For fixed estimates (A~, B~) and gain K the operators of that recursion are
constant: with Acl = A~ + B~K the terminal counterfactual state is
sum_s Acl^{H-1-s} (B~ o_s + w_{s+H}), where o_s is the DAC offset at step s.
The online loop builds the powers Acl^j and Acl^j B~ once per run, laid side
by side as (d_x, H d_x) and (d_x, H d_u) matrices, so each gradient is a few
2-D matmuls with no loop over the horizon; surrogate_cost keeps the
step-by-step rollout as the reference. The loop keeps the last 2H
disturbance estimates in a mirrored ring buffer of 4H rows (see gpc_run).

The projection onto the spectral-norm ball acts block by block. When
min(d_u, d_x) = 1 every block is a vector, whose spectral norm is its
Euclidean norm, and the projection is the rescale b -> (b / ||b||) bound;
matrix blocks take one batched SVD for the norms and a full SVD of the
blocks over their bound.

The offline comparator (best DAC in hindsight) minimizes the true
counterfactual cost over the same constraint set by projected gradient
descent with backtracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError
from .lds import CostFunction, CostSpec, LinearSystem, cost_at
from .plant import BlackBoxPlant


def _block_norms(M) -> np.ndarray:
    """Spectral norm of every block of an (H, d_u, d_x) stack: the Euclidean
    norm (an overflow-safe hypot fold) for vector blocks, one batched SVD for
    matrix blocks."""
    if min(M.shape[1:]) == 1:
        return np.hypot.reduce(np.abs(M.reshape(len(M), -1)), axis=1)
    return np.linalg.svd(M, compute_uv=False).max(axis=-1)


@dataclass
class DacParams:
    """Disturbance-action weights M = [M^0 ... M^{H-1}], each d_u x d_x.

    Membership in the constraint set requires ||M^{i-1}|| <= kappa^4 (1-gamma)^i.
    """

    M: np.ndarray  # (H, d_u, d_x)

    @property
    def H(self) -> int:
        return self.M.shape[0]

    @staticmethod
    def zeros(H: int, d_u: int, d_x: int) -> "DacParams":
        return DacParams(M=np.zeros((H, d_u, d_x)))

    def block_bounds(self, kappa: float, gamma: float) -> np.ndarray:
        i = np.arange(1, self.H + 1)
        return kappa**4 * (1.0 - gamma) ** i

    def max_violation(self, kappa: float, gamma: float) -> float:
        return float(np.max(_block_norms(self.M) - self.block_bounds(kappa, gamma)))


def _project_blocks(M, bounds):
    """Clip the singular values of each block M[i] at bounds[i].

    Returns (projected copy, mask of the clipped blocks, spectral norms of
    the input blocks). A clipped vector block is rescaled to its bound; only
    matrix blocks over their bound get a full SVD.
    """
    norms = _block_norms(M)
    over = norms > bounds
    out = M.copy()
    if over.any():
        if min(M.shape[1:]) == 1:  # (b / ||b||) bound on the clipped blocks
            clip = over[:, None, None]
            np.divide(M, norms[:, None, None], out=out, where=clip)
            np.multiply(out, bounds[:, None, None], out=out, where=clip)
        else:
            U, s, Vt = np.linalg.svd(M[over], full_matrices=False)
            out[over] = (U * np.minimum(s, bounds[over, None])[:, None, :]) @ Vt
    return out, over, norms


def project_M(params: DacParams, kappa: float, gamma: float) -> DacParams:
    """Per-block spectral projection: clip singular values at
    b_i = kappa^4 (1-gamma)^i (exact Frobenius projection onto the ball)."""
    out, _, _ = _project_blocks(params.M, params.block_bounds(kappa, gamma))
    return DacParams(M=out)


def dac_control(K, params: DacParams, x, w_buffer) -> np.ndarray:
    """u = K x + sum_{i=1}^H M^{i-1} w_hat_{t-i}.

    w_buffer rows are time ordered, most recent last: w_buffer[-i] = w_hat_{t-i}.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    w_buffer = np.atleast_2d(np.asarray(w_buffer, dtype=float))
    H = params.H
    if len(w_buffer) < H:
        raise DimensionMismatchError("disturbance buffer", (f">= {H}", K.shape[1]),
                                     w_buffer.shape)
    window_desc = w_buffer[:-H - 1:-1]  # rows w_{t-1}, ..., w_{t-H}
    return K @ np.asarray(x, dtype=float) + np.einsum("hux,hx->u", params.M,
                                                      window_desc)


def estimate_disturbance(A_est, B_est, x_t, u_t, x_next) -> np.ndarray:
    """w_hat_t = x_{t+1} - A~ x_t - B~ u_t.

    Grouped as x_next - (A x + B u), mirroring the forward transition's
    arithmetic order so that with exact estimates the only deviation from the
    true w_t is the single rounding of the forward addition.
    """
    A_est = np.atleast_2d(np.asarray(A_est, dtype=float))
    B_est = np.asarray(B_est, dtype=float)
    if B_est.ndim == 1:
        B_est = B_est.reshape(-1, 1)
    return _estimate_disturbance(A_est, B_est, np.asarray(x_t, dtype=float),
                                 np.asarray(u_t, dtype=float),
                                 np.asarray(x_next, dtype=float))


def _estimate_disturbance(A_est, B_est, x_t, u_t, x_next):
    """estimate_disturbance on normalised arrays."""
    return x_next - (A_est @ x_t + B_est @ u_t)


def surrogate_cost(params: DacParams, A_est, B_est, K, w_window,
                   cost_fn: CostFunction) -> float:
    """f_t(M): cost of the H-step counterfactual rolled from the zero state
    through the estimated dynamics under the recorded disturbance estimates.

    w_window has 2H rows, oldest first: w_window[j] = w_hat_{t-2H+j}. This is
    the plain step-by-step rollout, the reference for surrogate_gradient.
    """
    H = params.H
    A_est, B_est, K, w_window = _normalize_surrogate_args(A_est, B_est, K,
                                                          w_window, H)

    def control(s, y):  # DAC control at counterfactual step s
        return K @ y + sum(params.M[h] @ w_window[s + H - 1 - h]
                           for h in range(H))

    y = np.zeros(A_est.shape[0])
    for s in range(H):
        y = A_est @ y + B_est @ control(s, y) + w_window[s + H]
    return float(cost_fn.value(y, control(H, y)))


def _surrogate_operators(A_est, B_est, K, H):
    """The surrogate's constant operators for fixed (A~, B~, K).

    Returns (P, PB, gather): P = [Acl^{H-1} ... Acl^0] as one (d_x, H d_x)
    matrix with Acl = A~ + B~K, PB = [Acl^{H-1} B~ ... Acl^0 B~] as one
    (d_x, H d_u) matrix, and the index for which w_window[gather][s] =
    [w_{s+H-1}, ..., w_s] is the descending window feeding the control at
    counterfactual step s.
    """
    d_x = A_est.shape[0]
    Acl = A_est + B_est @ K
    powers = np.empty((H, d_x, d_x))
    powers[H - 1] = np.eye(d_x)
    for s in range(H - 2, -1, -1):
        powers[s] = Acl @ powers[s + 1]
    P = powers.transpose(1, 0, 2).reshape(d_x, H * d_x)
    PB = (powers @ B_est).transpose(1, 0, 2).reshape(d_x, -1)
    gather = np.arange(H + 1)[:, None] + np.arange(H - 1, -1, -1)[None, :]
    return P, PB, gather


def _dac_offsets(M, w_window, gather):
    """The descending windows of the 2H-row w_window as the rows of one
    (H+1, H d_x) matrix, and the DAC offsets o_s = sum_h M^h
    w_window[s+H-1-h] for s = 0..H as its product with M laid out as
    (d_u, H d_x). offsets[H] is the offset of the control played now."""
    H, d_u, d_x = M.shape
    stack = w_window[gather].reshape(H + 1, H * d_x)
    offsets = stack @ M.transpose(1, 0, 2).reshape(d_u, H * d_x).T  # (H+1, d_u)
    return stack, offsets


def _surrogate_grad(operators, K, w_window, stack, offsets, cost_fn):
    """Gradient of surrogate_cost through the precomputed operators, given
    the window stack and offsets of `_dac_offsets`.

    With o_s the DAC offset at counterfactual step s, the terminal state is
    y = sum_s P[s] w_window[s+H] + PB[s] o_s, so the cost's sensitivity to
    o_s is PB[s]' lam for s < H, where lam = dc/dy + K' dc/du, and dc/du for
    the terminal offset o_H. The chain rule through o_s = sum_h M^h
    w_window[s+H-1-h] gives the gradient in M. With the windows as the rows
    of one (H+1, H d_x) matrix and M as (d_u, H d_x), each step is a matmul.
    """
    P, PB, _ = operators
    H, d_u = offsets.shape[0] - 1, offsets.shape[1]
    d_x = w_window.shape[1]
    y = P @ w_window[H:].ravel() + PB @ offsets[:H].ravel()
    gx, gu = cost_fn.gradient(y, K @ y + offsets[H])
    gu = np.asarray(gu, dtype=float)
    lam = np.asarray(gx, dtype=float) + K.T @ gu
    g_offsets = np.empty_like(offsets)
    g_offsets[:H] = (lam @ PB).reshape(H, d_u)
    g_offsets[H] = gu
    return (g_offsets.T @ stack).reshape(d_u, H, d_x).transpose(1, 0, 2)


def surrogate_gradient(params: DacParams, A_est, B_est, K, w_window,
                       cost_fn: CostFunction) -> np.ndarray:
    """Exact gradient of surrogate_cost in the shape of M: the adjoint of
    the affine rollout, through the operators of _surrogate_operators."""
    A_est, B_est, K, w_window = _normalize_surrogate_args(A_est, B_est, K,
                                                          w_window, params.H)
    operators = _surrogate_operators(A_est, B_est, K, params.H)
    stack, offsets = _dac_offsets(params.M, w_window, operators[2])
    return _surrogate_grad(operators, K, w_window, stack, offsets, cost_fn)


def _normalize_surrogate_args(A_est, B_est, K, w_window, H):
    A_est = np.atleast_2d(np.asarray(A_est, dtype=float))
    B_est = np.asarray(B_est, dtype=float)
    if B_est.ndim == 1:
        B_est = B_est.reshape(-1, 1)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    w_window = np.atleast_2d(np.asarray(w_window, dtype=float))
    if len(w_window) != 2 * H:
        raise DimensionMismatchError("disturbance window", (2 * H, A_est.shape[0]),
                                     w_window.shape)
    return A_est, B_est, K, w_window


@dataclass
class GpcResult:
    params: DacParams
    steps: int
    total_cost: float
    max_constraint_violation: float
    param_history: Optional[list] = None
    projection_active_rounds: int = 0  # rounds whose projection clipped a block


def gpc_run(plant: BlackBoxPlant, K, kappa_star: float, gamma_tilde: float,
            H: int, eta: float, T: int, A_est, B_est,
            record_params: bool = False) -> GpcResult:
    """Online loop: play the DAC, observe, estimate the disturbance, take a
    projected gradient step on the surrogate loss.

    The last 2H disturbance estimates live in a ring of 4H rows: the estimate
    of slot p is written at rows p and p + 2H, so ring[p+1 : p+1+2H] is the
    time-ordered window (oldest first, newest last) as a view, where p is
    the slot written last. The window starts as the current plant state in
    the newest slot (the state left over from earlier phases enters as the
    first "disturbance") and zeros before it. The surrogate's operators are
    built once from (A_est, B_est, K), which stay fixed for the run, and the
    arguments are normalised once, before the loop.

    Each round builds the window stack and the H+1 DAC offsets once, before
    acting: the control K x_t + offsets[H] and the surrogate gradient share
    them. x_t is the previous round's x_next (the plant state, read once
    before the first round).
    """
    if H < 1 or T < 0:
        raise ValueError("H must be >= 1 and T >= 0")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    K = np.atleast_2d(np.asarray(K, dtype=float))
    A_est = np.atleast_2d(np.asarray(A_est, dtype=float))
    B_est = np.asarray(B_est, dtype=float)
    if B_est.ndim == 1:
        B_est = B_est.reshape(-1, 1)
    d_x, d_u = A_est.shape[0], B_est.shape[1]
    params = project_M(DacParams.zeros(H, d_u, d_x), kappa_star, gamma_tilde)
    bounds = params.block_bounds(kappa_star, gamma_tilde)
    violation = params.max_violation(kappa_star, gamma_tilde)
    M = params.M
    operators = _surrogate_operators(A_est, B_est, K, H)
    gather = operators[2]
    ring = np.zeros((4 * H, d_x))
    p = 2 * H - 1
    x = plant.state
    ring[p] = ring[p + 2 * H] = x
    total = 0.0
    max_viol = -math.inf
    active = 0
    history = [] if record_params else None
    for _ in range(T):
        window = ring[p + 1:p + 1 + 2 * H]
        stack, offsets = _dac_offsets(M, window, gather)
        u = K @ x + offsets[H]
        outcome = plant.apply(u, phase="gpc")
        total += outcome.cost
        w_hat = _estimate_disturbance(A_est, B_est, x, u, outcome.x_next)
        if eta > 0.0:
            g = _surrogate_grad(operators, K, window, stack, offsets,
                                outcome.cost_fn)
            M, over, norms = _project_blocks(M - eta * g, bounds)
            if over.any():  # measure the clipped blocks again
                active += 1
                norms = _block_norms(M)
            violation = float((norms - bounds).max())
        max_viol = max(max_viol, violation)
        if record_params:
            history.append(M.copy())
        p = (p + 1) % (2 * H)
        ring[p] = ring[p + 2 * H] = w_hat
        x = outcome.x_next
    return GpcResult(params=DacParams(M=M), steps=T, total_cost=total,
                     max_constraint_violation=(max_viol if T else 0.0),
                     param_history=history, projection_active_rounds=active)


# -- offline comparator ------------------------------------------------------

def _dac_trajectory(sys: LinearSystem, K, M, w_seq, x1):
    """States/controls of the fixed-M DAC on the true system under the
    recorded disturbances (w_s = 0 for s < 1). Returns (X, U, Wdesc) where
    Wdesc[t] rows are w_{t-1}, ..., w_{t-H} for the control at round t+1."""
    w_seq = np.atleast_2d(np.asarray(w_seq, dtype=float))
    T = len(w_seq)
    H = M.shape[0]
    d_x = sys.d_x
    Wpad = np.vstack([np.zeros((H, d_x)), w_seq])
    # windows[t] = rows (w_{t-H+1+j})... build descending windows per round
    from numpy.lib.stride_tricks import sliding_window_view
    asc = sliding_window_view(Wpad, (H, d_x)).reshape(T + 1, H, d_x)[:T]
    Wdesc = asc[:, ::-1, :]  # Wdesc[t-1] = [w_{t-1}, ..., w_{t-H}] for round t
    du_all = np.einsum("hux,thx->tu", M, Wdesc)
    Acl = sys.A + sys.B @ np.atleast_2d(K)
    X = np.empty((T, d_x))
    X[0] = np.asarray(x1, dtype=float)
    for t in range(T - 1):
        X[t + 1] = Acl @ X[t] + sys.B @ du_all[t] + w_seq[t]
    U = X @ np.atleast_2d(K).T + du_all
    return X, U, Wdesc


def _batch_cost(costs: CostSpec) -> Optional[CostFunction]:
    """The single time-invariant cost with batch callbacks, if that is what
    the cost spec is (the fast path for trajectory evaluation)."""
    if isinstance(costs, CostFunction) and costs.batch_value is not None:
        return costs
    return None


def _rollout_cost(sys: LinearSystem, K, M, w_seq, costs: CostSpec, x1):
    """Total cost of the fixed-M DAC, and the trajectory (X, U, Wdesc) of
    `_dac_trajectory` it was summed over."""
    trajectory = _dac_trajectory(sys, K, M, w_seq, x1)
    X, U, _ = trajectory
    batch = _batch_cost(costs)
    if batch is not None:
        return float(np.sum(batch.batch_value(X, U))), trajectory
    total = 0.0
    for t in range(len(X)):
        total += float(cost_at(costs, t + 1).value(X[t], U[t]))
    return total, trajectory


def dac_total_cost(sys: LinearSystem, K, M, w_seq, costs: CostSpec, x1) -> float:
    return _rollout_cost(sys, K, M, w_seq, costs, x1)[0]


def _dac_gradient(sys: LinearSystem, K, trajectory, costs: CostSpec) -> np.ndarray:
    """dJ/dM along a trajectory from `_rollout_cost`, by one adjoint pass
    (no second forward rollout)."""
    X, U, Wdesc = trajectory
    K = np.atleast_2d(np.asarray(K, dtype=float))
    batch = _batch_cost(costs)
    if batch is not None:
        gx, gu = batch.batch_gradient(X, U)
        gx = np.asarray(gx, dtype=float)
        gu = np.asarray(gu, dtype=float)
    else:
        gx = np.empty_like(X)
        gu = np.empty_like(U)
        for t in range(len(X)):
            gx[t], gu[t] = cost_at(costs, t + 1).gradient(X[t], U[t])
    Acl = (sys.A + sys.B @ K).T
    Bt = sys.B.T
    # adjoint pass: lam_t = d J / d x_t, s_t = d J / d (DAC offset at t)
    base = gx + gu @ K
    S = np.empty_like(U)
    lam = np.zeros(sys.d_x)
    for t in range(len(X) - 1, -1, -1):
        S[t] = gu[t] + Bt @ lam
        lam = base[t] + Acl @ lam
    return np.einsum("tu,thx->hux", S, Wdesc)


@dataclass
class HindsightResult:
    params: DacParams
    cost: float
    grad_norm: float
    iterations: int
    converged: bool


def best_dac_in_hindsight(sys: LinearSystem, w_seq, costs: CostSpec, K,
                          H: int, kappa: float, gamma: float, x1,
                          iters: int = 200, grad_tol: float = 1e-8) -> HindsightResult:
    """Minimize the true total cost over M in the constraint set by projected
    gradient descent with backtracking (the cost is convex in M since states
    are affine in M). Deterministic given its inputs; the returned grad_norm
    is the projected-gradient stationarity measure at the solution. Each
    gradient reuses the trajectory the accepted cost was summed over, so an
    iteration costs one forward rollout per candidate plus one adjoint pass."""
    w_seq = np.atleast_2d(np.asarray(w_seq, dtype=float))
    params = DacParams.zeros(H, sys.d_u, sys.d_x)
    J, trajectory = _rollout_cost(sys, K, params.M, w_seq, costs, x1)
    g = _dac_gradient(sys, K, trajectory, costs)
    step = 1.0 / max(float(np.linalg.norm(g)), 1e-12)
    pg_norm = math.inf
    converged = False
    it = 0
    for it in range(1, iters + 1):
        moved = False
        while step > 1e-18:
            cand = project_M(DacParams(M=params.M - step * g), kappa, gamma)
            delta = params.M - cand.M
            decrease = float(np.sum(g * delta))
            J_cand, cand_trajectory = _rollout_cost(sys, K, cand.M, w_seq,
                                                    costs, x1)
            if J_cand <= J - 1e-4 * decrease:
                pg_norm = float(np.linalg.norm(delta)) / step
                improvement = J - J_cand
                params, J, trajectory = cand, J_cand, cand_trajectory
                moved = True
                break
            step *= 0.5
        if not moved or pg_norm <= grad_tol:
            converged = True
            break
        if improvement <= 1e-12 * max(abs(J), 1.0):
            converged = True
            break
        g = _dac_gradient(sys, K, trajectory, costs)
        step *= 1.5
    return HindsightResult(params=params, cost=J, grad_norm=pg_norm,
                           iterations=it, converged=converged)
