"""Reference implementations of the GPC projection, online loop and
comparator: per-block projection (SVD, and the closed form for vector
blocks), the step-by-step online loop (history rebuilt by np.vstack, forward
rollout and reverse accumulation over the horizon), and the best DAC in
hindsight that rolls the accepted trajectory out a second time for its
gradient, against which the paths in blackbox_lds.nsc are checked."""

import functools
import math

import numpy as np

from blackbox_lds.lds import cost_at
from blackbox_lds.nsc import (
    DacParams,
    HindsightResult,
    _batch_cost,
    _dac_trajectory,
    dac_total_cost,
    project_M,
)


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


def ref_dac_cost_and_gradient(sys, K, M, w_seq, costs, x1):
    X, U, Wdesc = _dac_trajectory(sys, K, M, w_seq, x1)
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
    params = DacParams.zeros(H, sys.d_u, sys.d_x)
    J, g = ref_dac_cost_and_gradient(sys, K, params.M, w_seq, costs, x1)
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
            J_cand = dac_total_cost(sys, K, cand.M, w_seq, costs, x1)
            if J_cand <= J - 1e-4 * decrease:
                pg_norm = float(np.linalg.norm(delta)) / step
                improvement = J - J_cand
                params, J = cand, J_cand
                moved = True
                break
            step *= 0.5
        if not moved or pg_norm <= grad_tol:
            converged = True
            break
        if improvement <= 1e-12 * max(abs(J), 1.0):
            converged = True
            break
        _, g = ref_dac_cost_and_gradient(sys, K, params.M, w_seq, costs, x1)
        step *= 1.5
    return HindsightResult(params=params, cost=J, grad_norm=pg_norm,
                           iterations=it, converged=converged)
