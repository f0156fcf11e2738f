"""Phase 2: recover a strongly stable controller from the system estimates.

Feasibility SDP (steady-state covariance relaxation):

    find Sigma >= 0,  Tr(Sigma) <= nu,
    s.t. Sigma_xx = [A_hat B_hat] Sigma [A_hat B_hat]' + I,

solved by plain alternating projections; both projections are closed
form, which is all a "minimize 0" feasibility problem needs at desk
dimensions. An iteration is one eigh and an affine projection with
flat-index svec/smat: ~80 us at d_x = 15, d_u = 3 and ~0.13 ms at d_x = 20,
d_u = 5 (one BLAS thread, x86). The solver exits feasible, or infeasible by a dual certificate
(checked at iterations 1, 2, 4, ..., one eigvalsh each), by a plateau of
the violation, or at the iteration cap; see sdp_feasibility.
K_hat = Sigma_xu' Sigma_xx^{-1} then runs until the probing-phase state decays.
Its certificate on the estimates is lds.stability_witness with X = Sigma_xx:
kappa = max(||K||, cond(Sigma_xx)^{1/2}) and gamma = 1 - ||L|| for
L = Sigma_xx^{-1/2} (A_hat + B_hat K) Sigma_xx^{1/2}, which the SDP bounds by
||L||^2 <= 1 - 1/lambda_max(Sigma_xx) <= 1 - 1/nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    NotStabilizingError,
    SdpInfeasibleError,
)
from .lds import (
    LinearSystem,
    StabilityCertificate,
    spectral_norm,
    stability_witness,
)
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
    """The trace cap nu that existence parameters (kappa', gamma') of the
    true system and estimation accuracy eps induce, and the guaranteed
    stability (kappa~, gamma~) of the recovered controller on the true
    system."""

    nu: float
    kappa_tilde: float
    gamma_tilde: float

    @staticmethod
    def from_existence(kappa_prime: float, gamma_prime: float, eps: float,
                       d_x: int) -> "RecoveryConstants":
        """The constants for a (kappa', gamma')-strongly stabilizable true
        system estimated to accuracy eps. kappa' < 1 or gamma' outside (0, 1]
        (no such system exists), eps not finite and >= 0, or gamma' <= 2 eps
        kappa'^2 raises ConfigError naming kappa_prime, gamma_prime or eps."""
        if not (math.isfinite(kappa_prime) and kappa_prime >= 1.0):
            raise ConfigError("kappa_prime", "kappa' must be finite and >= 1 "
                              "(||H|| ||H^-1|| >= 1)")
        if not 0.0 < gamma_prime <= 1.0:
            raise ConfigError("gamma_prime", "gamma' must be in (0, 1]")
        if not (math.isfinite(eps) and eps >= 0.0):
            # a negative eps would shrink nu below its eps = 0 value
            raise ConfigError("eps", f"eps must be finite and >= 0, got {eps}")
        margin = gamma_prime - 2.0 * eps * kappa_prime**2
        if margin <= 0.0:
            raise ConfigError("eps", "gamma' must exceed 2 eps kappa'^2 (nu "
                              "denominator nonpositive): choose a smaller eps")
        nu = 2.0 * kappa_prime**4 * d_x / margin
        kappa_tilde = 2.0 * kappa_prime**2 * math.sqrt(d_x) / math.sqrt(gamma_prime)
        gamma_tilde = gamma_prime / (16.0 * d_x * kappa_prime**4)
        return RecoveryConstants(nu, kappa_tilde, gamma_tilde)


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


def _psd_trace_point(w: np.ndarray, U: np.ndarray, nu: float) -> np.ndarray:
    """Projection onto {PSD, Tr <= nu} of the symmetric U diag(w) U'."""
    return _symmetrize((U * _project_spectrum(w, nu)) @ U.T)


def project_psd_trace(S, nu: float) -> np.ndarray:
    """Exact Frobenius projection onto {Sigma PSD, Tr(Sigma) <= nu}."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    return _psd_trace_point(*np.linalg.eigh(_symmetrize(S)), nu)


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
    on Sym(d_x) by flat index arrays. P is singular iff F* vanishes on a
    symmetric Lambda != 0 (A orthogonal and B = 0, say), and that is rejected.
    """

    def __init__(self, A_hat, B_hat):
        estimates = LinearSystem(A_hat, B_hat)
        self.d_x, self.d_u = estimates.d_x, estimates.d_u
        self.G = np.hstack([estimates.A, estimates.B])
        d, n = self.d_x, self.d_x + self.d_u
        rows, cols = np.triu_indices(d, 1)
        # flat positions in a d_x x d_x matrix: diagonal, upper and lower triangle
        self._diag = np.arange(d) * (d + 1)
        self._up = rows * d + cols
        self._lo = cols * d + rows
        self._eye = np.eye(d)
        # [Lambda 0; 0 0]: only the Lambda block is ever written
        self._pad = np.zeros((n, n))
        # rounding bound of the dual certificate, per unit ||Lambda||_F
        self._cert_tol = 32.0 * n * np.finfo(float).eps
        self._gram = 1.0 + float(np.sum(self.G * self.G))
        m = d * (d + 1) // 2
        P = np.column_stack([
            self.svec(_affine_map(self.G, self._F_adjoint(self.smat(e))))
            for e in np.eye(m)])
        cond = np.linalg.cond(P)
        if not np.isfinite(cond) or cond > 1e14:
            raise SdpInfeasibleError("affine constraint operator is rank deficient",
                                     reason="rank")
        self._P = P
        self._P_factor = np.linalg.inv(P)

    def svec(self, R) -> np.ndarray:
        """[diag(R), (R_ij + R_ji)/sqrt(2) for i < j in row-major order]."""
        f = np.ravel(R)
        return np.concatenate((f[self._diag],
                               _INV_SQRT2 * f[self._up] + _INV_SQRT2 * f[self._lo]))

    def smat(self, v) -> np.ndarray:
        """Adjoint of svec, and its inverse on Sym(d_x)."""
        out = np.empty(self.d_x * self.d_x)
        out[self._diag] = v[: self.d_x]
        out[self._up] = out[self._lo] = _INV_SQRT2 * v[self.d_x:]
        return out.reshape(self.d_x, self.d_x)

    def _F_adjoint(self, Lam):
        """F*(Lambda) = [Lambda 0; 0 0] - G' Lambda G."""
        self._pad[: self.d_x, : self.d_x] = Lam
        return self._pad - self.G.T @ Lam @ self.G

    def _multiplier(self, S):
        """Lambda such that S - F*(Lambda) is the projection of S, for an S
        that is already exactly symmetric."""
        return self.smat(self._P_factor @ self.svec(_affine_map(self.G, S) - self._eye))

    def residual(self, S) -> float:
        """||Sigma_xx - G Sigma G' - I||_F."""
        return _affine_residual(self.G, np.asarray(S, dtype=float))

    def project(self, S) -> np.ndarray:
        S = _symmetrize(S)
        return _symmetrize(S - self._F_adjoint(self._multiplier(S)))

    def certificate_margin(self, Lam, F_adj, nu: float) -> float:
        """How far the symmetric Lambda' = -Lambda proves the SDP infeasible;
        F_adj is F*(Lambda) as computed. A positive margin is a proof.

        Every feasible Sigma (PSD, Tr <= nu, F(Sigma) = I) gives
        tr(Lambda') = <Lambda', F(Sigma)> = <F*(Lambda'), Sigma>
                    <= nu max(lambda_max(F*(Lambda')), 0),
        so tr(Lambda') exceeding the right side rules every Sigma out. The
        margin subtracts delta = 32 n eps (nu (1 + ||G||_F^2) + n) ||Lambda||_F,
        which bounds the rounding of the two products in F*, of eigvalsh
        (backward stable, reading one triangle) and of the trace.
        """
        lam_max = -float(np.linalg.eigvalsh(F_adj)[0])  # of F*(-Lambda)
        delta = self._cert_tol * (nu * self._gram + self.d_x + self.d_u) \
            * float(np.linalg.norm(Lam))
        return -float(Lam.trace()) - nu * max(lam_max, 0.0) - delta


def project_affine(S, A_hat, B_hat) -> np.ndarray:
    """Frobenius-nearest symmetric matrix with
    Sigma_xx = [A_hat B_hat] Sigma [A_hat B_hat]' + I."""
    return AffineProjector(A_hat, B_hat).project(S)


def sdp_feasibility(A_hat, B_hat, nu: float, on_iteration=None) -> SdpBlockMatrix:
    """Alternating projections onto {PSD, Tr <= nu} and the affine
    steady-state constraint, from the centered initializer (nu/n) I.

    Plain (von Neumann) alternation converges to some point of the
    intersection, which is all a feasibility problem needs. Each iteration
    projects onto {PSD, Tr <= nu}, takes the affine step and makes one eigh
    of the affine iterate x: its eigenvalues give x's PSD violation, and if x
    is not yet feasible, the same eigenpairs give the next PSD projection.
    Exits:
    - feasible: returns the affine-feasible iterate once its PSD and trace
      violations are within DEFAULT_TOL;
    - certificate: at iterations 1, 2, 4, 8, ... the affine step's
      multiplier Lambda is checked as a dual (Farkas) certificate, and a
      proof of infeasibility raises SdpInfeasibleError(reason="certificate")
      (A_hat=2, B_hat=0 is proved at iteration 1: Sigma_xx = 4 Sigma_xx + 1
      forces Sigma_xx < 0);
    - plateau: every 1000 iterations from 2000 on, a violation above
      sqrt(DEFAULT_TOL) that shrank by less than 0.1 % since the last check
      raises reason="plateau" (a heuristic: it can reject a feasible pair);
    - cap: DEFAULT_MAX_ITERS iterations exhausted raises reason="cap".
    An estimate whose affine operator is rank deficient is rejected before
    the first iteration with reason="rank".
    on_iteration(it, violation), when given, observes the per-iteration
    constraint violation of the affine-feasible iterate. An iteration costs
    O((d_x + d_u)^3 + d_x^4) flops, d_x^4 for the normal-equation matvec.
    A nu that is not positive and finite raises ConfigError("nu").
    """
    if not (nu > 0 and math.isfinite(nu)):
        raise ConfigError("nu", f"trace cap nu must be positive and finite, got {nu}")
    proj = AffineProjector(A_hat, B_hat)
    n = proj.d_x + proj.d_u
    w, U = np.linalg.eigh((nu / n) * np.eye(n))
    best = math.inf
    last_check = math.inf
    for it in range(1, DEFAULT_MAX_ITERS + 1):
        # y and x leave _symmetrize, so both are exactly symmetric
        y = _psd_trace_point(w, U, nu)
        Lam = proj._multiplier(y)
        F_adj = proj._F_adjoint(Lam)
        x = _symmetrize(y - F_adj)
        w, U = np.linalg.eigh(x)
        viol = max(0.0, -float(w[0]), float(x.trace()) - nu)
        best = min(best, viol)
        if on_iteration is not None:
            on_iteration(it, viol)
        if viol <= DEFAULT_TOL:
            return SdpBlockMatrix(sigma=x, d_x=proj.d_x, d_u=proj.d_u)
        if it & (it - 1) == 0:
            margin = proj.certificate_margin(Lam, F_adj, nu)
            if margin > 0.0:
                raise SdpInfeasibleError(
                    f"SDP infeasible: the dual certificate of iteration {it} "
                    f"holds with margin {margin:.3g} (eps too large or nu too small)",
                    reason="certificate", residual=viol, iterations=it)
        if it % 1000 == 0:
            # plateau far from feasibility => the two sets do not intersect
            if viol > math.sqrt(DEFAULT_TOL) and viol > 0.999 * last_check:
                raise SdpInfeasibleError(
                    f"SDP infeasible or ill-conditioned: violation {viol:.3g} "
                    f"plateaued after {it} iterations (eps too large or nu too small)",
                    reason="plateau", residual=viol, iterations=it)
            last_check = viol
    raise SdpInfeasibleError(
        f"SDP infeasible or ill-conditioned: violation {best:.3g} "
        f"after {DEFAULT_MAX_ITERS} iterations (eps too large or nu too small)",
        reason="cap", residual=best, iterations=DEFAULT_MAX_ITERS)


def extract_controller(sigma: SdpBlockMatrix) -> np.ndarray:
    """K_hat = Sigma_xu' Sigma_xx^{-1}; the affine constraint guarantees
    Sigma_xx >= I, so singularity signals upstream solver failure."""
    svals = np.linalg.svd(sigma.xx, compute_uv=False)
    if svals[-1] < 1e-9:
        raise SdpInfeasibleError(
            "Sigma_xx numerically singular: upstream solver failure", reason="rank")
    return np.linalg.solve(sigma.xx, sigma.xu).T


@dataclass
class RecoveryResult:
    K: np.ndarray
    sigma: SdpBlockMatrix
    # strong-stability witness of K on the estimates, from X = Sigma_xx
    witness: StabilityCertificate
    # solver iterations, final violation and ||Sigma_xx - G Sigma G' - I||_F
    sdp_iterations: int
    sdp_violation: float
    sdp_affine_residual: float

    @property
    def norm_L(self) -> float:
        return self.witness.norm_L


def controller_recovery(A_hat, B_hat, nu: float) -> RecoveryResult:
    """Solve the feasibility SDP on (A_hat, B_hat) under the trace cap nu
    and extract K_hat.

    nu is the cap the caller resolved, such as RecoveryConstants.nu for
    existence parameters (kappa', gamma', eps); sdp_feasibility refuses one
    that is not positive and finite. The witness of K on the estimates
    (X = Sigma_xx, see above) is checked against ||L|| <= 1 - 1/(2 nu).
    """
    estimates = LinearSystem(A_hat, B_hat)
    A_hat, B_hat = estimates.A, estimates.B
    last = {}
    sigma = sdp_feasibility(A_hat, B_hat, nu,
                            on_iteration=lambda it, viol: last.update(it=it, viol=viol))
    K = extract_controller(sigma)
    witness = stability_witness(A_hat + B_hat @ K, sigma.xx, K)
    norm_L = witness.norm_L
    bound = 1.0 - 1.0 / (2.0 * nu)
    if norm_L > bound + max(10.0 * DEFAULT_TOL, 1e-8):
        raise SdpInfeasibleError(
            f"recovered witness not contracting: ||L|| = {norm_L:.12g} "
            f"exceeds {bound:.12g}", reason="witness", residual=norm_L - bound)
    return RecoveryResult(K=K, sigma=sigma, witness=witness,
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
