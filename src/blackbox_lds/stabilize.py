"""Phase 2: recover a strongly stable controller from the system estimates.

Feasibility SDP (steady-state covariance relaxation):

    find Sigma >= 0,  Tr(Sigma) <= nu,
    s.t. Sigma_xx = [A_hat B_hat] Sigma [A_hat B_hat]' + I,

solved by Dykstra's alternating projections; both projections are closed
form, which is all a "minimize 0" feasibility problem needs at desk
dimensions; an iteration (one eigh, an affine projection with index-array
svec/smat, one eigvalsh) takes ~0.3 ms at d_x = 20, d_u = 5 on 2 x86 cores.
K_hat = Sigma_xu' Sigma_xx^{-1} then runs until the probing-phase state decays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    NotStabilizingError,
    SdpInfeasibleError,
)
from .lds import spectral_norm
from .plant import BlackBoxPlant

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 10**5
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SdpBlockMatrix:
    """Symmetric (d_x + d_u) x (d_x + d_u) matrix with named covariance blocks."""

    sigma: np.ndarray
    d_x: int
    d_u: int

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        n = self.d_x + self.d_u
        if s.shape != (n, n):
            raise ValueError(f"sigma must be {n}x{n}, got {s.shape}")
        if spectral_norm(s - s.T) > 1e-8 * max(1.0, spectral_norm(s)):
            raise ValueError("sigma must be symmetric")
        object.__setattr__(self, "sigma", 0.5 * (s + s.T))

    @property
    def xx(self) -> np.ndarray:
        return self.sigma[: self.d_x, : self.d_x]

    @property
    def xu(self) -> np.ndarray:
        return self.sigma[: self.d_x, self.d_x:]


@dataclass(frozen=True)
class RecoveryConstants:
    """Existence parameters (kappa', gamma') for the true system, the trace
    cap nu they induce, the guaranteed stability (kappa~, gamma~) of the
    recovered controller on the true system, and the estimation accuracy
    eps consumed."""

    kappa_prime: float
    gamma_prime: float
    eps: float
    nu: float
    kappa_tilde: float
    gamma_tilde: float

    @staticmethod
    def from_existence(kappa_prime: float, gamma_prime: float, eps: float,
                       d_x: int) -> "RecoveryConstants":
        margin = gamma_prime - 2.0 * eps * kappa_prime**2
        if margin <= 0.0:
            raise ValueError("gamma' must exceed 2 eps kappa'^2 (nu denominator "
                             "nonpositive): choose a smaller eps")
        nu = 2.0 * kappa_prime**4 * d_x / margin
        kappa_tilde = 2.0 * kappa_prime**2 * math.sqrt(d_x) / math.sqrt(gamma_prime)
        gamma_tilde = gamma_prime / (16.0 * d_x * kappa_prime**4)
        return RecoveryConstants(kappa_prime=kappa_prime, gamma_prime=gamma_prime,
                                 eps=eps, nu=nu, kappa_tilde=kappa_tilde,
                                 gamma_tilde=gamma_tilde)


def _symmetrize(S):
    S = np.asarray(S, dtype=float)
    return 0.5 * (S + S.T)


def _project_spectrum(w: np.ndarray, nu: float) -> np.ndarray:
    """Euclidean projection of eigenvalues onto {w >= 0, sum(w) <= nu}:
    clip negatives, then uniform shift-and-clip if the trace cap binds."""
    clipped = np.maximum(w, 0.0)
    if clipped.sum() <= nu:
        return clipped
    srt = np.sort(w)[::-1]
    css = np.cumsum(srt)
    theta = 0.0
    for j in range(1, len(srt) + 1):
        cand = (css[j - 1] - nu) / j
        if srt[j - 1] > cand:
            theta = cand
        else:
            break
    return np.maximum(w - theta, 0.0)


def project_psd_trace(S, nu: float) -> np.ndarray:
    """Exact Frobenius projection onto {Sigma PSD, Tr(Sigma) <= nu}."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    S = _symmetrize(S)
    w, U = np.linalg.eigh(S)
    w = _project_spectrum(w, nu)
    return _symmetrize((U * w) @ U.T)


def _affine_map(G, S):
    """F(Sigma) = Sigma_xx - G Sigma G' for G = [A_hat B_hat]."""
    d_x = G.shape[0]
    return S[:d_x, :d_x] - G @ S @ G.T


def _affine_residual(G, S) -> float:
    """||Sigma_xx - G Sigma G' - I||_F."""
    return float(np.linalg.norm(_affine_map(G, S) - np.eye(G.shape[0])))


class AffineProjector:
    """Frobenius projection onto {Sigma symmetric : F(Sigma) = I} where
    F(Sigma) = Sigma_xx - G Sigma G' and G = [A_hat B_hat].

    The correction is Sigma - F*(Lambda) with P svec(Lambda) = svec(F(Sigma) - I)
    and P = svec F F* smat; svec/smat map to and from orthonormal coordinates
    on Sym(d_x) by index arrays. P is singular iff F* vanishes on a symmetric
    Lambda != 0 (A orthogonal and B = 0, say), and that is rejected.
    """

    def __init__(self, A_hat, B_hat):
        A_hat = np.atleast_2d(np.asarray(A_hat, dtype=float))
        B_hat = np.asarray(B_hat, dtype=float)
        if B_hat.ndim == 1:
            B_hat = B_hat.reshape(-1, 1)
        self.d_x = A_hat.shape[0]
        self.d_u = B_hat.shape[1]
        self.G = np.hstack([A_hat, B_hat])
        self._upper = np.triu_indices(self.d_x, 1)
        self._eye = np.eye(self.d_x)
        m = self.d_x * (self.d_x + 1) // 2
        P = np.column_stack([
            self.svec(_affine_map(self.G, self._F_adjoint(self.smat(e))))
            for e in np.eye(m)])
        cond = np.linalg.cond(P)
        if not np.isfinite(cond) or cond > 1e14:
            raise SdpInfeasibleError("affine constraint operator is rank deficient")
        self._P = P
        self._P_factor = np.linalg.inv(P)

    def svec(self, R) -> np.ndarray:
        """[diag(R), (R_ij + R_ji)/sqrt(2) for i < j in row-major order]."""
        up, lo = self._upper, self._upper[::-1]
        return np.concatenate((R.diagonal(), _INV_SQRT2 * R[up] + _INV_SQRT2 * R[lo]))

    def smat(self, v) -> np.ndarray:
        """Adjoint of svec, and its inverse on Sym(d_x)."""
        out = np.empty((self.d_x, self.d_x))
        np.fill_diagonal(out, v[: self.d_x])
        out[self._upper] = out[self._upper[::-1]] = _INV_SQRT2 * v[self.d_x:]
        return out

    def _F_adjoint(self, Lam):
        out = np.zeros((self.d_x + self.d_u,) * 2)
        out[: self.d_x, : self.d_x] = Lam
        out -= self.G.T @ Lam @ self.G
        return out

    def residual(self, S) -> float:
        """||Sigma_xx - G Sigma G' - I||_F."""
        return _affine_residual(self.G, np.asarray(S, dtype=float))

    def project(self, S) -> np.ndarray:
        S = _symmetrize(S)
        lam = self._P_factor @ self.svec(_affine_map(self.G, S) - self._eye)
        return _symmetrize(S - self._F_adjoint(self.smat(lam)))


def project_affine(S, A_hat, B_hat) -> np.ndarray:
    """Frobenius-nearest symmetric matrix with
    Sigma_xx = [A_hat B_hat] Sigma [A_hat B_hat]' + I."""
    return AffineProjector(A_hat, B_hat).project(S)


def sdp_feasibility(A_hat, B_hat, nu: float, tol: float = DEFAULT_TOL,
                    max_iters: int = DEFAULT_MAX_ITERS,
                    on_iteration=None) -> SdpBlockMatrix:
    """Dykstra's alternating projections onto {PSD, Tr <= nu} and the affine
    steady-state constraint, from the centered initializer (nu/n) I.

    Returns the affine-feasible iterate once its PSD and trace violations are
    within tol. Raises SdpInfeasibleError when max_iters is exhausted or the
    violation plateaus well above tol (the scalar instance A_hat=2, B_hat=0
    plateaus immediately: Sigma_xx = 4 Sigma_xx + 1 forces Sigma_xx < 0).
    on_iteration(it, violation), when given, observes the per-iteration
    constraint violation of the affine-feasible iterate. An iteration costs
    O((d_x + d_u)^3 + d_x^4) flops, d_x^4 for the normal-equation matvec.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    proj = AffineProjector(A_hat, B_hat)
    n = proj.d_x + proj.d_u
    x = (nu / n) * np.eye(n)
    p = np.zeros((n, n))
    best = math.inf
    last_check = math.inf
    for it in range(1, max_iters + 1):
        y = project_psd_trace(x + p, nu)
        p = x + p - y
        x = proj.project(y)
        eigs = np.linalg.eigvalsh(x)
        psd_viol = max(0.0, -float(eigs[0]))
        trace_viol = max(0.0, float(np.trace(x)) - nu)
        viol = max(psd_viol, trace_viol)
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
                    residual=viol, iterations=it)
            last_check = viol
    raise SdpInfeasibleError(
        f"SDP infeasible or ill-conditioned: violation {best:.3g} "
        f"after {max_iters} iterations (eps too large or nu too small)",
        residual=best, iterations=max_iters)


def extract_controller(sigma: SdpBlockMatrix) -> np.ndarray:
    """K_hat = Sigma_xu' Sigma_xx^{-1}; the affine constraint guarantees
    Sigma_xx >= I, so singularity signals upstream solver failure."""
    svals = np.linalg.svd(sigma.xx, compute_uv=False)
    if svals[-1] < 1e-9:
        raise SdpInfeasibleError(
            "Sigma_xx numerically singular: upstream solver failure")
    return np.linalg.solve(sigma.xx, sigma.xu).T


@dataclass
class RecoveryResult:
    K: np.ndarray
    kappa_tilde: float
    gamma_tilde: float
    constants: RecoveryConstants
    sigma: SdpBlockMatrix
    # direct witness on the estimated system: H = Sigma_xx^{1/2}
    H: np.ndarray
    L: np.ndarray
    norm_L: float
    # Dykstra iterations, final violation and ||Sigma_xx - G Sigma G' - I||_F
    sdp_iterations: int
    sdp_violation: float
    sdp_affine_residual: float

    @property
    def kappa_est(self) -> float:
        """Certified kappa of K on the estimated system."""
        Hinv = np.linalg.inv(self.H)
        return max(spectral_norm(self.K), spectral_norm(self.H) * spectral_norm(Hinv))

    @property
    def gamma_est(self) -> float:
        """Certified gamma of K on the estimated system."""
        return 1.0 - self.norm_L


def controller_recovery(A_hat, B_hat, eps: float, kappa_prime: float,
                        gamma_prime: float, tol: float = DEFAULT_TOL,
                        max_iters: int = DEFAULT_MAX_ITERS,
                        nu: Optional[float] = None) -> RecoveryResult:
    """Solve the feasibility SDP on (A_hat, B_hat) and extract K_hat.

    The returned (kappa_tilde, gamma_tilde) are the guaranteed stability
    constants for the true system. A direct strong-stability witness on the
    estimates, H = Sigma_xx^{1/2} and L = H^{-1}(A_hat + B_hat K) H, is built
    and checked against the feasibility-implied bound ||L|| <= 1 - 1/(2 nu).
    The trace cap nu is derived from (kappa', gamma', eps) unless given.
    """
    A_hat = np.atleast_2d(np.asarray(A_hat, dtype=float))
    B_hat = np.asarray(B_hat, dtype=float)
    if B_hat.ndim == 1:
        B_hat = B_hat.reshape(-1, 1)
    d_x = A_hat.shape[0]
    constants = RecoveryConstants.from_existence(kappa_prime, gamma_prime, eps, d_x)
    if nu is not None:
        constants = replace(constants, nu=float(nu))
    last = {}
    sigma = sdp_feasibility(A_hat, B_hat, constants.nu, tol=tol, max_iters=max_iters,
                            on_iteration=lambda it, viol: last.update(it=it, viol=viol))
    K = extract_controller(sigma)
    w, U = np.linalg.eigh(sigma.xx)
    w = np.maximum(w, 1e-300)
    H = _symmetrize((U * np.sqrt(w)) @ U.T)
    Hinv = (U * (1.0 / np.sqrt(w))) @ U.T
    L = Hinv @ (A_hat + B_hat @ K) @ H
    norm_L = spectral_norm(L)
    bound = 1.0 - 1.0 / (2.0 * constants.nu)
    if norm_L > bound + max(10.0 * tol, 1e-8):
        raise SdpInfeasibleError(
            f"recovered witness not contracting: ||L|| = {norm_L:.12g} "
            f"exceeds {bound:.12g}", residual=norm_L - bound)
    return RecoveryResult(K=K, kappa_tilde=constants.kappa_tilde,
                          gamma_tilde=constants.gamma_tilde, constants=constants,
                          sigma=sigma, H=H, L=L, norm_L=norm_L,
                          sdp_iterations=last["it"], sdp_violation=last["viol"],
                          sdp_affine_residual=_affine_residual(
                              np.hstack([A_hat, B_hat]), sigma.sigma))


def decay_horizon(gamma_tilde: float, x_norm: float) -> int:
    """T2 = max(ln(gamma~ ||x||) / gamma~, 0), rounded up to whole rounds."""
    val = gamma_tilde * x_norm
    if val <= 1.0:
        return 0
    return int(math.ceil(math.log(val) / gamma_tilde))


@dataclass
class DecayResult:
    x_final: np.ndarray
    cost: float
    steps: int


def decay(plant: BlackBoxPlant, K, kappa_tilde: float,
          gamma_tilde: float) -> DecayResult:
    """Execute u = K x until the probing-phase state has contracted.

    Runs T2 = max(ln(gamma~ ||x||)/gamma~, 0) rounds from the plant's current
    state x; a (kappa~, gamma~) strongly stable K guarantees the terminal
    norm is at most 2 kappa~/gamma~.
    Divergence is detected on whole contraction windows: over any window of
    ceil(ln(2 kappa~)/gamma~) rounds the certified envelope at least halves
    the above-floor state, so a window that fails to shrink it means the
    prior bounds were violated.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    x = plant.state
    steps = decay_horizon(gamma_tilde, float(np.linalg.norm(x)))
    window = max(int(math.ceil(math.log(max(2.0 * kappa_tilde, 2.0)) / gamma_tilde)), 1)
    floor = 2.0 * kappa_tilde / gamma_tilde
    cost = 0.0
    window_start_norm = float(np.linalg.norm(x))
    for s in range(1, steps + 1):
        outcome = plant.apply(K @ x, phase="decay")
        cost += outcome.cost
        x = outcome.x_next
        if s % window == 0:
            norm_now = float(np.linalg.norm(x))
            if norm_now > max(window_start_norm, floor) * (1.0 + 1e-9):
                raise NotStabilizingError(
                    "controller not stabilizing - prior bounds (k, kappa, beta) "
                    f"likely violated (||x|| grew {window_start_norm:.3g} -> "
                    f"{norm_now:.3g} over a {window}-round window)")
            window_start_norm = norm_now
    final_norm = float(np.linalg.norm(x))
    if final_norm > floor * (1.0 + 1e-9):
        # a (kappa~, gamma~) strongly stable K lands below 2 kappa~/gamma~
        # after T2 rounds for any bounded noise, so this is a prior violation
        raise NotStabilizingError(
            "controller not stabilizing - prior bounds (k, kappa, beta) likely "
            f"violated (terminal ||x|| = {final_norm:.3g} above the certified "
            f"bound {floor:.3g})")
    return DecayResult(x_final=x, cost=cost, steps=steps)
