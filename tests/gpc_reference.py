"""Reference implementations of the GPC projection and online loop:
per-block projection (SVD, and the closed form for vector blocks) and the
step-by-step online loop (history rebuilt by np.vstack, forward rollout and
reverse accumulation over the horizon), against which the batched paths in
blackbox_lds.nsc are checked."""

import functools

import numpy as np


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
