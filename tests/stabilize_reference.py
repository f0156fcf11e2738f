"""Reference implementations of the phase-2 affine projection and
alternating-projection loop: the projector that builds its normal-equation
matrix and every projection from a list of d_x(d_x+1)/2 dense basis
matrices, and the solver loop that makes each projection with the public
project_psd_trace and has no dual certificate. The index-array svec/smat
paths in blackbox_lds.stabilize are checked against them for bit-identical
results."""

import math

import numpy as np

from blackbox_lds.errors import SdpInfeasibleError
from blackbox_lds.stabilize import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    SdpBlockMatrix,
    _symmetrize,
    project_psd_trace,
)


def ref_svec_basis(d):
    """Orthonormal basis of Sym(d) under the Frobenius inner product."""
    basis = []
    for i in range(d):
        E = np.zeros((d, d))
        E[i, i] = 1.0
        basis.append(E)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d))
            E[i, j] = inv_sqrt2
            E[j, i] = inv_sqrt2
            basis.append(E)
    return basis


class RefAffineProjector:
    """Frobenius projection onto {Sigma symmetric : F(Sigma) = I} where
    F(Sigma) = Sigma_xx - G Sigma G' and G = [A_hat B_hat].

    The correction is Sigma - F*(Lambda) with Lambda solving the (small,
    prefactored) normal equations of the vectorized constraint operator; the
    identity block inside F* keeps the operator full rank for any finite G.
    """

    def __init__(self, A_hat, B_hat):
        A_hat = np.atleast_2d(np.asarray(A_hat, dtype=float))
        B_hat = np.asarray(B_hat, dtype=float)
        if B_hat.ndim == 1:
            B_hat = B_hat.reshape(-1, 1)
        self.d_x = A_hat.shape[0]
        self.d_u = B_hat.shape[1]
        self.G = np.hstack([A_hat, B_hat])
        self._basis = ref_svec_basis(self.d_x)
        m = len(self._basis)
        P = np.empty((m, m))
        for b, Eb in enumerate(self._basis):
            FFstar = self._F(self._F_adjoint(Eb))
            for a, Ea in enumerate(self._basis):
                P[a, b] = float(np.sum(Ea * FFstar))
        cond = np.linalg.cond(P)
        if not np.isfinite(cond) or cond > 1e14:
            raise SdpInfeasibleError("affine constraint operator is rank deficient",
                                     reason="rank")
        self._P = P
        self._P_factor = np.linalg.inv(P)

    def _F(self, S):
        return S[: self.d_x, : self.d_x] - self.G @ S @ self.G.T

    def _F_adjoint(self, Lam):
        n = self.d_x + self.d_u
        out = np.zeros((n, n))
        out[: self.d_x, : self.d_x] = Lam
        out -= self.G.T @ Lam @ self.G
        return out

    def residual(self, S) -> float:
        """||Sigma_xx - G Sigma G' - I||_F."""
        return float(np.linalg.norm(self._F(np.asarray(S, dtype=float))
                                    - np.eye(self.d_x)))

    def project(self, S) -> np.ndarray:
        S = _symmetrize(S)
        R = self._F(S) - np.eye(self.d_x)
        rvec = np.array([float(np.sum(E * R)) for E in self._basis])
        lam_vec = self._P_factor @ rvec
        Lam = np.zeros((self.d_x, self.d_x))
        for c, E in zip(lam_vec, self._basis):
            Lam += c * E
        return _symmetrize(S - self._F_adjoint(Lam))


def ref_sdp_feasibility(A_hat, B_hat, nu, tol=DEFAULT_TOL,
                        max_iters=DEFAULT_MAX_ITERS, on_iteration=None):
    """Alternating projections onto {PSD, Tr <= nu} and the affine
    steady-state constraint, from the centered initializer (nu/n) I.

    Returns the affine-feasible iterate once its PSD and trace violations are
    within tol. Raises SdpInfeasibleError when max_iters is exhausted or the
    violation plateaus well above tol (the scalar instance A_hat=2, B_hat=0
    plateaus at iteration 2000: Sigma_xx = 4 Sigma_xx + 1 forces
    Sigma_xx < 0). on_iteration(it, violation), when given, observes the
    per-iteration constraint violation of the affine-feasible iterate.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    proj = RefAffineProjector(A_hat, B_hat)
    n = proj.d_x + proj.d_u
    x = (nu / n) * np.eye(n)
    best = math.inf
    last_check = math.inf
    for it in range(1, max_iters + 1):
        x = proj.project(project_psd_trace(x, nu))
        eigs = np.linalg.eigh(_symmetrize(x))[0]
        viol = max(0.0, -float(eigs[0]), float(np.trace(x)) - nu)
        best = min(best, viol)
        if on_iteration is not None:
            on_iteration(it, viol)
        if viol <= tol:
            return SdpBlockMatrix(sigma=x, d_x=proj.d_x, d_u=proj.d_u)
        if it % 1000 == 0:
            # plateau far from feasibility => the two sets do not intersect
            if viol > math.sqrt(tol) and viol > 0.999 * last_check:
                raise SdpInfeasibleError(
                    f"SDP infeasible or ill-conditioned: violation {viol:.3g} "
                    f"plateaued after {it} iterations (eps too large or nu too small)",
                    reason="plateau", residual=viol, iterations=it)
            last_check = viol
    raise SdpInfeasibleError(
        f"SDP infeasible or ill-conditioned: violation {best:.3g} "
        f"after {max_iters} iterations (eps too large or nu too small)",
        reason="cap", residual=best, iterations=max_iters)
