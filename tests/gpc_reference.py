"""Reference implementations of the GPC surrogate, projection, online loop
and comparator: the surrogate cost as a step-by-step rollout and its
gradient by reverse accumulation over the horizon, per-block projection
(SVD, and the closed form for vector blocks), the step-by-step online loop
(history rebuilt by np.vstack), the comparator's forward rollout and adjoint
pass as plain per-step loops, and the best DAC in hindsight that rolls the
accepted trajectory out a second time for its gradient, against which the
paths in blackbox_lds.nsc are checked. `core_surrogate` chains the private
cores the online loop runs, so tests can call them as the loop does."""

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from blackbox_lds.lds import cost_at
from blackbox_lds.nsc import (
    HindsightResult,
    _batch_cost,
    _dac_offsets,
    _project_blocks,
    _surrogate_grad,
    _surrogate_operators,
)


def surrogate_cost(M, A_est, B_est, K, w_window, cost_fn):
    """f_t(M): cost of the H-step counterfactual rolled from the zero state
    through the estimated dynamics under the recorded disturbance estimates.

    w_window has 2H rows, oldest first: w_window[j] = w_hat_{t-2H+j}. This is
    the plain step-by-step rollout, the reference for the surrogate gradient.
    """
    H = len(M)
    A_est, B_est, K, w_window = (np.atleast_2d(np.asarray(a, dtype=float))
                                 for a in (A_est, B_est, K, w_window))

    def control(s, y):  # DAC control at counterfactual step s
        return K @ y + sum(M[h] @ w_window[s + H - 1 - h] for h in range(H))

    y = np.zeros(A_est.shape[0])
    for s in range(H):
        y = A_est @ y + B_est @ control(s, y) + w_window[s + H]
    return float(cost_fn.value(y, control(H, y)))


def core_surrogate(M, A_est, B_est, K, w_window, cost_fn):
    """(offsets, gradient) as gpc_run computes them for M and the 2H-row
    window: _surrogate_operators -> _dac_offsets -> _surrogate_grad.
    offsets[H] is the DAC offset of the control played now."""
    operators = _surrogate_operators(A_est, B_est, K, len(M))
    stack, offsets = _dac_offsets(M, w_window, operators[2])
    return offsets, _surrogate_grad(operators, K, w_window, stack, offsets,
                                    cost_fn)


def ref_project(M, bounds):
    out = np.empty_like(M)
    clipped = np.zeros(len(M), dtype=bool)
    for i in range(len(M)):
        if np.linalg.norm(M[i], 2) <= bounds[i]:
            out[i] = M[i]
            continue
        U, s, Vt = np.linalg.svd(M[i], full_matrices=False)
        out[i] = (U * np.minimum(s, bounds[i])) @ Vt
        clipped[i] = True
    return out, clipped


def ref_project_vectors(M, bounds):
    # closed form for vector blocks: the spectral norm is the Euclidean norm
    # (a hypot fold), and a block over its bound is rescaled to it
    out = M.copy()
    norms = np.empty(len(M))
    for i, b in enumerate(M):
        norms[i] = functools.reduce(np.hypot, np.abs(b.ravel()))
        if norms[i] > bounds[i]:
            out[i] = b / norms[i] * bounds[i]
    return out, norms


def ref_surrogate_gradient(M, A, B, K, w, cost_fn):
    H = len(M)
    stack = np.array([[w[s + H - 1 - h] for h in range(H)] for s in range(H + 1)])
    offsets = np.einsum("hux,shx->su", M, stack)
    ys = [np.zeros(A.shape[0])]
    for s in range(H):
        u = K @ ys[s] + offsets[s]
        ys.append(A @ ys[s] + B @ u + w[s + H])
    gx, gu = cost_fn.gradient(ys[H], K @ ys[H] + offsets[H])
    g_u = np.empty((H + 1, M.shape[1]))
    g_u[H] = gu
    g_y = gx + K.T @ gu
    for s in range(H - 1, -1, -1):
        g_u[s] = B.T @ g_y
        g_y = A.T @ g_y + K.T @ g_u[s]
    return np.einsum("su,shx->hux", g_u, stack)


def ref_gpc_run(plant, K, kappa, gamma, H, eta, T, A, B):
    bounds = kappa**4 * (1.0 - gamma) ** np.arange(1, H + 1)
    M = np.zeros((H, B.shape[1], A.shape[0]))
    buf = np.zeros((2 * H, A.shape[0]))
    buf[-1] = plant.state
    total, history, active = 0.0, [], 0
    for _ in range(T):
        x = plant.state
        u = K @ x + np.einsum("hux,hx->u", M, buf[::-1][:H])
        outcome = plant.apply(u, phase="gpc")
        total += outcome.cost
        w_hat = outcome.x_next - (A @ x + B @ u)
        g = ref_surrogate_gradient(M, A, B, K, buf, outcome.cost_fn)
        M, clipped = ref_project(M - eta * g, bounds)
        active += bool(clipped.any())
        history.append(M.copy())
        buf = np.vstack([buf[1:], w_hat])
    return total, history, active


def ref_dac_trajectory(sys, K, M, w_seq, x1):
    # (X, U, Wdesc) of the fixed-M DAC, one state per step:
    # x_{t+1} = A_cl x_t + B du_t + w_t
    w_seq = np.atleast_2d(np.asarray(w_seq, dtype=float))
    T = len(w_seq)
    H = M.shape[0]
    d_x = sys.d_x
    Wpad = np.vstack([np.zeros((H, d_x)), w_seq])
    asc = sliding_window_view(Wpad, (H, d_x)).reshape(T + 1, H, d_x)[:T]
    Wdesc = asc[:, ::-1, :]
    du_all = np.einsum("hux,thx->tu", M, Wdesc)
    Acl = sys.A + sys.B @ np.atleast_2d(K)
    X = np.empty((T, d_x))
    X[0] = np.asarray(x1, dtype=float)
    for t in range(T - 1):
        X[t + 1] = Acl @ X[t] + sys.B @ du_all[t] + w_seq[t]
    U = X @ np.atleast_2d(K).T + du_all
    return X, U, Wdesc


def ref_dac_cost(sys, K, M, w_seq, costs, x1):
    X, U, _ = ref_dac_trajectory(sys, K, M, w_seq, x1)
    batch = _batch_cost(costs)
    if batch is not None:
        return float(np.sum(batch.batch_value(X, U)))
    total = 0.0
    for t in range(len(X)):
        total += float(cost_at(costs, t + 1).value(X[t], U[t]))
    return total


def ref_dac_cost_and_gradient(sys, K, M, w_seq, costs, x1):
    X, U, Wdesc = ref_dac_trajectory(sys, K, M, w_seq, x1)
    T = len(X)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    batch = _batch_cost(costs)
    if batch is not None:
        total = float(np.sum(batch.batch_value(X, U)))
        gx, gu = batch.batch_gradient(X, U)
        gx = np.asarray(gx, dtype=float)
        gu = np.asarray(gu, dtype=float)
    else:
        gx = np.empty_like(X)
        gu = np.empty_like(U)
        total = 0.0
        for t in range(T):
            c = cost_at(costs, t + 1)
            total += float(c.value(X[t], U[t]))
            gxt, gut = c.gradient(X[t], U[t])
            gx[t] = gxt
            gu[t] = gut
    Acl = (sys.A + sys.B @ K).T
    Bt = sys.B.T
    # adjoint pass: lam_t = d J / d x_t, s_t = d J / d (DAC offset at t)
    base = gx + gu @ K
    S = np.empty_like(U)
    lam = np.zeros(sys.d_x)
    for t in range(T - 1, -1, -1):
        S[t] = gu[t] + Bt @ lam
        lam = base[t] + Acl @ lam
    grad = np.einsum("tu,thx->hux", S, Wdesc)
    return total, grad


def ref_best_dac_in_hindsight(sys, w_seq, costs, K, H, kappa, gamma, x1,
                              iters=200, grad_tol=1e-8):
    w_seq = np.atleast_2d(np.asarray(w_seq, dtype=float))
    bounds = kappa**4 * (1.0 - gamma) ** np.arange(1, H + 1)
    M = np.zeros((H, sys.d_u, sys.d_x))
    J, g = ref_dac_cost_and_gradient(sys, K, M, w_seq, costs, x1)
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
            J_cand = ref_dac_cost(sys, K, cand, w_seq, costs, x1)
            if J_cand <= J - 1e-4 * decrease:
                pg_norm = float(np.linalg.norm(delta)) / step
                improvement = J - J_cand
                M, J = cand, J_cand
                moved = True
                break
            step *= 0.5
        if not moved or pg_norm <= grad_tol:
            converged = True
            break
        if improvement <= 1e-12 * max(abs(J), 1.0):
            converged = True
            break
        _, g = ref_dac_cost_and_gradient(sys, K, M, w_seq, costs, x1)
        step *= 1.5
    return HindsightResult(M=M, cost=J, grad_norm=pg_norm,
                           iterations=it, converged=converged)
