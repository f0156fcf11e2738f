"""Phase 3: online nonstochastic control with a disturbance-action controller.

Controls are u_t = K x_t + sum_i M^{i-1} w_hat_{t-i} with the history
matrices M, an (H, d_u, d_x) array, updated by projected online gradient
descent on a surrogate loss: the cost of the H-step zero-reset
counterfactual trajectory replayed through the estimated dynamics. States
are affine in M, so the surrogate is convex and its gradient is exact chain
rule through the unrolled recursion.

For fixed estimates (A~, B~) and gain K the operators of that recursion are
constant: with Acl = A~ + B~K the terminal counterfactual state is
sum_s Acl^{H-1-s} (B~ o_s + w_{s+H}), where o_s is the DAC offset at step s.
The online loop builds the powers Acl^j and Acl^j B~ once per run, laid side
by side as (d_x, H d_x) and (d_x, H d_u) matrices, so each gradient is a few
2-D matmuls with no loop over the horizon. The step-by-step rollout of the
surrogate, against which these are checked, is `surrogate_cost` in
tests/gpc_reference.py. The loop keeps the last 2H disturbance estimates in
a mirrored ring buffer of 4H rows (see gpc_run).

The projection onto the spectral-norm ball acts block by block. When
min(d_u, d_x) = 1 every block is a vector, whose spectral norm is its
Euclidean norm, and the projection is the rescale b -> (b / ||b||) bound;
matrix blocks take one batched SVD for the norms and a full SVD of the
blocks over their bound.

The offline comparator (best DAC in hindsight) minimizes the true
counterfactual cost over the same constraint set by projected gradient
descent with backtracking. Each candidate costs one forward rollout of T
steps and each accepted iterate one adjoint pass of T steps. What does not
depend on the previous step (the DAC offsets du_t, B du_t and B' lam_t) is
one batched product outside the loops, so a step is one matrix-vector
product and two adds forward, one product and one add backward. The
forward step adds w_t last, x_{t+1} = (A_cl x_t + B du_t) + w_t;
pre-summing B du_t + w_t would save an add but round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionMismatchError
from .lds import CostFunction, CostSpec, LinearSystem, cost_at
from .plant import BlackBoxPlant

# best_dac_in_hindsight stops once the projected-gradient norm is this small
_COMPARATOR_GRAD_TOL = 1e-8


def _block_bounds(H: int, kappa: float, gamma: float) -> np.ndarray:
    """The bounds kappa^4 (1-gamma)^i, i = 1..H, on the spectral norms of
    the blocks M^{i-1} of the constraint set.

    Raises ConfigError naming kappa or gamma unless every bound is a finite
    number >= 0: a NaN or infinite bound would leave M unconstrained, and
    gamma > 1 makes the odd bounds negative.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.float64(kappa) ** 4
        bounds = scale * (1.0 - gamma) ** np.arange(1, H + 1)
        valid = bool((np.isfinite(bounds) & (bounds >= 0.0)).all())
    if not valid:
        raise ConfigError("gamma" if np.isfinite(scale) else "kappa",
                          f"the bounds kappa^4 (1-gamma)^i must be finite and "
                          f">= 0, got kappa = {kappa}, gamma = {gamma}")
    return bounds


def _block_norms(M) -> np.ndarray:
    """Spectral norm of every block of an (H, d_u, d_x) stack: the Euclidean
    norm (an overflow-safe hypot fold) for vector blocks, one batched SVD for
    matrix blocks."""
    if min(M.shape[1:]) == 1:
        return np.hypot.reduce(np.abs(M.reshape(len(M), -1)), axis=1)
    return np.linalg.svd(M, compute_uv=False).max(axis=-1)


def _project_blocks(M, bounds):
    """Clip the singular values of each block M[i] at bounds[i], the exact
    Frobenius projection onto the constraint set.

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


def _estimate_disturbance(A_est, B_est, x_t, u_t, x_next):
    """w_hat_t = x_{t+1} - A~ x_t - B~ u_t.

    Grouped as x_next - (A x + B u), mirroring the forward transition's
    arithmetic order so that with exact estimates the only deviation from the
    true w_t is the single rounding of the forward addition.
    """
    return x_next - (A_est @ x_t + B_est @ u_t)


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
    """Gradient of the surrogate in the shape of M through the precomputed
    operators, given the window stack and offsets of `_dac_offsets`.

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


@dataclass
class GpcResult:
    M: np.ndarray  # (H, d_u, d_x), the DAC weights after the last round
    steps: int
    total_cost: float
    max_constraint_violation: float
    projection_active_rounds: int = 0  # rounds whose projection clipped a block


def gpc_run(plant: BlackBoxPlant, K, kappa_star: float, gamma_tilde: float,
            H: int, eta: float, T: int, A_est, B_est) -> GpcResult:
    """Online loop: play the DAC, observe, estimate the disturbance, take a
    projected gradient step on the surrogate loss.

    M starts at zero and each step is projected onto the blocks' bounds
    kappa_star^4 (1-gamma_tilde)^i. A bound that is not a finite number >= 0
    (see `_block_bounds`), or an eta that is not, raises ConfigError.

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
    if not (math.isfinite(eta) and eta >= 0):
        raise ConfigError("eta", f"must be finite and >= 0, got {eta}")
    bounds = _block_bounds(H, kappa_star, gamma_tilde)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    est = LinearSystem(A_est, B_est)
    A_est, B_est, d_x, d_u = est.A, est.B, est.d_x, est.d_u
    M = np.zeros((H, d_u, d_x))
    violation = float((0.0 - bounds).max())  # that of M = 0
    operators = _surrogate_operators(A_est, B_est, K, H)
    gather = operators[2]
    ring = np.zeros((4 * H, d_x))
    p = 2 * H - 1
    x = plant.state
    ring[p] = ring[p + 2 * H] = x
    total = 0.0
    max_viol = -math.inf
    active = 0
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
        p = (p + 1) % (2 * H)
        ring[p] = ring[p + 2 * H] = w_hat
        x = outcome.x_next
    return GpcResult(M=M, steps=T, total_cost=total,
                     max_constraint_violation=(max_viol if T else 0.0),
                     projection_active_rounds=active)


# -- offline comparator ------------------------------------------------------

def _dac_trajectory(sys: LinearSystem, K, M, w_seq, x1):
    """States/controls of the fixed-M DAC on the true system under the
    recorded disturbances (w_s = 0 for s < 1), for a (T, d_x) w_seq and a
    (d_x,) x1. Returns (X, U, Wdesc) where Wdesc[t] rows are w_{t-1}, ...,
    w_{t-H} for the control at round t+1.

    The offsets du_t and their images B du_t are batched products; each of
    the T-1 steps is then one matrix-vector product and two adds,
    x_{t+1} = (A_cl x_t + B du_t) + w_t (B du_t + w_t is not pre-summed,
    which would round differently)."""
    T = len(w_seq)
    H = M.shape[0]
    d_x = sys.d_x
    Wpad = np.vstack([np.zeros((H, d_x)), w_seq])
    asc = sliding_window_view(Wpad, (H, d_x)).reshape(T + 1, H, d_x)[:T]
    Wdesc = asc[:, ::-1, :]  # Wdesc[t-1] = [w_{t-1}, ..., w_{t-H}] for round t
    du_all = np.einsum("hux,thx->tu", M, Wdesc)
    # a stacked matrix-vector product, bitwise equal to B @ du_all[t]
    Bdu = np.matmul(sys.B, du_all[:, :, None])[:, :, 0]
    step = (sys.A + sys.B @ np.atleast_2d(K)).dot
    X = np.empty((T, d_x))
    x = X[0] = x1
    for x_next, b, w in zip(X[1:], Bdu, w_seq):
        x = step(x) + b + w
        x_next[...] = x
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


def _comparator_inputs(sys: LinearSystem, w_seq, x1):
    """w_seq as a (T, d_x) array with T >= 1 and x1 as a (d_x,) array;
    any other shape raises DimensionMismatchError."""
    w_seq = np.asarray(w_seq, dtype=float)
    if w_seq.ndim != 2 or len(w_seq) < 1 or w_seq.shape[1] != sys.d_x:
        raise DimensionMismatchError("disturbance sequence", ("T >= 1", sys.d_x),
                                     w_seq.shape)
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (sys.d_x,):
        raise DimensionMismatchError("initial state", (sys.d_x,), x1.shape)
    return w_seq, x1


def dac_total_cost(sys: LinearSystem, K, M, w_seq, costs: CostSpec, x1) -> float:
    """Total cost of the fixed-M DAC over the T rounds of w_seq from x1."""
    w_seq, x1 = _comparator_inputs(sys, w_seq, x1)
    return _rollout_cost(sys, K, M, w_seq, costs, x1)[0]


def _dac_gradient(sys: LinearSystem, K, trajectory, costs: CostSpec) -> np.ndarray:
    """dJ/dM along a trajectory from `_rollout_cost`, by one adjoint pass
    (no second forward rollout).

    The co-states lam_{t+1} = dJ/dx_{t+1} are the rows of one array: each
    of the T-1 backward steps is one matrix-vector product and one add,
    lam_t = base_t + A_cl' lam_{t+1}. The offset sensitivities
    s_t = gu_t + B' lam_{t+1} are then one batched product."""
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
    step = (sys.A + sys.B @ K).T.dot
    base = gx + gu @ K
    L = np.empty_like(X)  # L[t] = lam_{t+1}, with lam_{T+1} = 0
    L[-1] = 0.0
    lam = L[-1]
    for lam_prev, b in zip(L[-2::-1], base[:0:-1]):
        lam = b + step(lam)
        lam_prev[...] = lam
    S = gu + np.matmul(sys.B.T, L[:, :, None])[:, :, 0]
    return np.einsum("tu,thx->hux", S, Wdesc)


@dataclass
class HindsightResult:
    M: np.ndarray  # (H, d_u, d_x), the best DAC weights found
    cost: float
    grad_norm: float
    iterations: int
    converged: bool


def best_dac_in_hindsight(sys: LinearSystem, w_seq, costs: CostSpec, K,
                          H: int, kappa: float, gamma: float, x1,
                          iters: int = 200) -> HindsightResult:
    """Minimize the true total cost over M in the constraint set by projected
    gradient descent with backtracking (the cost is convex in M since states
    are affine in M). Deterministic given its inputs; the returned grad_norm
    is the projected-gradient stationarity measure at the solution. Each
    gradient reuses the trajectory the accepted cost was summed over, so an
    iteration costs one forward rollout per candidate plus one adjoint pass:
    T-1 steps of one matrix-vector product each (see `_dac_trajectory` and
    `_dac_gradient`; B du_t + w_t is not pre-summed, so the rounding is that
    of a plain step-by-step rollout). w_seq must be (T, d_x) with T >= 1 and
    x1 (d_x,), else DimensionMismatchError. Bounds that are not finite
    numbers >= 0 raise ConfigError (see `_block_bounds`)."""
    w_seq, x1 = _comparator_inputs(sys, w_seq, x1)
    bounds = _block_bounds(H, kappa, gamma)
    M = np.zeros((H, sys.d_u, sys.d_x))
    J, trajectory = _rollout_cost(sys, K, M, w_seq, costs, x1)
    g = _dac_gradient(sys, K, trajectory, costs)
    step = 1.0 / max(float(np.linalg.norm(g)), 1e-12)
    pg_norm = math.inf
    converged = False
    it = 0
    for it in range(1, iters + 1):
        moved = False
        while step > 1e-18:
            cand = _project_blocks(M - step * g, bounds)[0]
            delta = M - cand
            decrease = float(np.sum(g * delta))
            J_cand, cand_trajectory = _rollout_cost(sys, K, cand, w_seq,
                                                    costs, x1)
            if J_cand <= J - 1e-4 * decrease:
                pg_norm = float(np.linalg.norm(delta)) / step
                improvement = J - J_cand
                M, J, trajectory = cand, J_cand, cand_trajectory
                moved = True
                break
            step *= 0.5
        if not moved or pg_norm <= _COMPARATOR_GRAD_TOL:
            converged = True
            break
        if improvement <= 1e-12 * max(abs(J), 1.0):
            converged = True
            break
        g = _dac_gradient(sys, K, trajectory, costs)
        step *= 1.5
    return HindsightResult(M=M, cost=J, grad_norm=pg_norm,
                           iterations=it, converged=converged)
