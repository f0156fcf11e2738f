"""Core linear-dynamical-system model: plant data types, disturbance and cost
abstractions, the trajectory record, the one-step transition, and
controllability / stability primitives. The stepping loop itself lives in
plant.py (BlackBoxPlant.apply, driven by simulate).

Conventions: matrix norms are spectral, vector norms Euclidean. States evolve as
x_{t+1} = A x_t + B u_t + w_t with bounded disturbances ||w_t|| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    CertificateError,
    DimensionMismatchError,
    NotControllableError,
)

# Scale-free rank threshold: sigma_min < RANK_RTOL * sigma_max means rank deficient.
RANK_RTOL = 1e-10

# The range of the largest |entry| of a vector in which its sum of squares
# neither overflows nor underflows past the last digits
_NORM_SAFE_RANGE = (2.0 ** -400, 2.0 ** 400)


def spectral_norm(m) -> float:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _as_vector(v, dim, name):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (dim,):
        raise DimensionMismatchError(name, (dim,), v.shape)
    return v


@dataclass(frozen=True)
class LinearSystem:
    """The unknown plant (A, B)."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatchError("A", "(d_x, d_x)", A.shape)
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatchError("B", (A.shape[0], "d_u"), B.shape)
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("system matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_u(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class PriorBounds:
    """What the black-box learner is told up front: controllability index k,
    controllability parameter kappa, and spectral-norm bound beta on A, B."""

    k: int
    kappa: float
    beta: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.kappa < 1.0:
            raise ValueError("kappa must be >= 1")
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")


class DisturbanceSource:
    """Generator mapping (t, x_t) -> w_t with ||w_t|| <= 1.

    Subclasses override __call__. Generators with internal RNG state are meant
    to be confined to a single simulation.
    """

    def __call__(self, t: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ZeroDisturbance(DisturbanceSource):
    def __call__(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class ClippedGaussianDisturbance(DisturbanceSource):
    """Gaussian draws with the norm clipped at 1."""

    def __init__(self, d_x, scale=0.5, seed=0):
        self.d_x = d_x
        self.scale = float(scale)
        self.rng = np.random.default_rng(seed)

    def __call__(self, t, x):
        w = self.rng.normal(0.0, self.scale, self.d_x)
        n = np.linalg.norm(w)
        if n > 1.0:
            w = w / n
        return w


class SinusoidalDisturbance(DisturbanceSource):
    """Oblivious per-coordinate sinusoid, normalized so ||w_t|| <= 1."""

    def __init__(self, d_x, omega=0.2, phases=None, amplitude=1.0):
        if not 0 < amplitude <= 1.0:
            raise ValueError("amplitude must be in (0, 1]")
        self.d_x = d_x
        self.omega = float(omega)
        self.amplitude = float(amplitude)
        if phases is None:
            phases = np.linspace(0.0, np.pi / 2.0, d_x, endpoint=False)
        self.phases = np.asarray(phases, dtype=float)

    def __call__(self, t, x):
        raw = np.sin(self.omega * t + self.phases)
        return self.amplitude * raw / math.sqrt(self.d_x)


class SignAdversarialDisturbance(DisturbanceSource):
    """Pushes against the current state: w_t = -scale * x_t / ||x_t||.

    A state whose largest |entry| lies outside _NORM_SAFE_RANGE is divided
    by that entry first: its sum of squares would overflow, or underflow
    and lose the digits that keep ||w_t|| at scale."""

    def __init__(self, scale=1.0):
        if not 0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        self.scale = float(scale)

    def __call__(self, t, x):
        x = np.asarray(x, dtype=float)
        peak = max(float(x.max()), -float(x.min())) if x.size else 0.0
        if peak == 0.0:
            return np.zeros_like(x)
        if not _NORM_SAFE_RANGE[0] <= peak <= _NORM_SAFE_RANGE[1]:
            x = x / peak
        return -self.scale * x / np.linalg.norm(x)


class ReplayDisturbance(DisturbanceSource):
    """Replays a recorded sequence; w_t = sequence[t-1] (t is 1-based)."""

    def __init__(self, sequence):
        seq = np.atleast_2d(np.asarray(sequence, dtype=float))
        norms = np.linalg.norm(seq, axis=1)
        if norms.size and norms.max() > 1.0 + 1e-12:
            raise ValueError("replayed disturbances must satisfy ||w|| <= 1")
        self.sequence = seq

    def __call__(self, t, x):
        if not 1 <= t <= len(self.sequence):
            raise IndexError(f"no recorded disturbance for step {t}")
        return self.sequence[t - 1].copy()


@dataclass(frozen=True)
class CostFunction:
    """Convex cost c(x, u) with analytic gradient and Lipschitz scale G:
    ||grad c(x, u)|| <= G * D whenever ||x||, ||u|| <= D, and c(0, 0) = 0.

    batch_value / batch_gradient, when present, evaluate whole trajectories
    (rows are time steps) and only exist as a fast path; they must agree with
    the scalar callbacks.
    """

    value: Callable[[np.ndarray, np.ndarray], float]
    gradient: Callable[[np.ndarray, np.ndarray], tuple]
    G: float
    convex: bool = True
    batch_value: Optional[Callable] = None
    batch_gradient: Optional[Callable] = None

    @staticmethod
    def quadratic() -> "CostFunction":
        """c(x, u) = ||x||^2 + ||u||^2, the LQ benchmark cost (G = 2)."""
        return CostFunction(
            value=lambda x, u: float(np.dot(x, x) + np.dot(u, u)),
            gradient=lambda x, u: (2.0 * np.asarray(x, dtype=float),
                                   2.0 * np.asarray(u, dtype=float)),
            G=2.0,
            batch_value=lambda X, U: (X * X).sum(axis=1) + (U * U).sum(axis=1),
            batch_gradient=lambda X, U: (2.0 * X, 2.0 * U),
        )

    @staticmethod
    def weighted_quadratic(Q, R) -> "CostFunction":
        """c(x, u) = x'Qx + u'Ru for symmetric PSD Q, R; G = 2 max(||Q||, ||R||)."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        R = np.atleast_2d(np.asarray(R, dtype=float))
        G = 2.0 * max(spectral_norm(Q), spectral_norm(R), 1e-300)
        return CostFunction(
            value=lambda x, u: float(x @ Q @ x + u @ R @ u),
            gradient=lambda x, u: (2.0 * (Q @ x), 2.0 * (R @ u)),
            G=G,
            batch_value=lambda X, U: np.einsum("ti,ij,tj->t", X, Q, X)
            + np.einsum("ti,ij,tj->t", U, R, U),
            batch_gradient=lambda X, U: (2.0 * X @ Q, 2.0 * U @ R),
        )


CostSpec = Union[CostFunction, Sequence[CostFunction], Callable[[int], CostFunction]]


def cost_at(costs: CostSpec, t: int) -> CostFunction:
    """Resolve the cost function revealed at round t (1-based)."""
    if isinstance(costs, CostFunction):
        return costs
    if callable(costs):
        return costs(t)
    return costs[t - 1]


@dataclass(frozen=True)
class StabilityCertificate:
    """Witness that K is (kappa, gamma) strongly stable: ||K|| <= kappa,
    A + BK = H L H^{-1} with ||H|| ||H^{-1}|| <= kappa and ||L|| <= 1 - gamma."""

    K: np.ndarray
    kappa: float
    gamma: float
    H: np.ndarray
    L: np.ndarray

    def closed_loop(self, sys: LinearSystem) -> np.ndarray:
        return sys.A + sys.B @ self.K

    def residual(self, sys: LinearSystem) -> float:
        """Reconstruction error ||A + BK - H L H^{-1}||."""
        recon = self.H @ self.L @ np.linalg.inv(self.H)
        return spectral_norm(self.closed_loop(sys) - recon)


@dataclass
class StepRecord:
    t: int
    x: np.ndarray
    u: np.ndarray
    w: np.ndarray
    cost: float
    phase: str


@dataclass
class RunLog:
    """Per-step trajectory records plus the running cost, overall and per
    phase (phases in order of first appearance), each summed one record at
    a time in round order."""

    records: list = field(default_factory=list)
    cumulative_cost: float = 0.0
    seed: Optional[int] = None
    phase_costs: dict = field(default_factory=dict)

    def append(self, record: StepRecord):
        if self.records and record.t != self.records[-1].t + 1:
            raise ValueError("records must be contiguous in t")
        self.records.append(record)
        self.cumulative_cost += record.cost
        self.phase_costs[record.phase] = (self.phase_costs.get(record.phase, 0.0)
                                          + record.cost)

    def __len__(self):
        return len(self.records)

    def states(self) -> np.ndarray:
        return np.array([r.x for r in self.records])

    def controls(self) -> np.ndarray:
        return np.array([r.u for r in self.records])

    def disturbances(self) -> np.ndarray:
        return np.array([r.w for r in self.records])


def step(sys: LinearSystem, x, u, w) -> np.ndarray:
    """One transition x_{t+1} = A x + B u + w."""
    x = _as_vector(x, sys.d_x, "state")
    u = _as_vector(u, sys.d_u, "control")
    w = _as_vector(w, sys.d_x, "disturbance")
    return sys.A @ x + sys.B @ u + w


def controllability_matrix(sys: LinearSystem, k: int) -> np.ndarray:
    """C_k = [B, AB, ..., A^{k-1} B], shape (d_x, k * d_u)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    blocks = []
    M = sys.B.copy()
    for _ in range(k):
        blocks.append(M)
        M = sys.A @ M
    return np.hstack(blocks)


def strong_controllability_check(sys: LinearSystem, k: int):
    """Return (is_full_row_rank, kappa_actual) with
    kappa_actual = ||(C_k C_k')^{-1}|| when C_k has full row rank.

    Rank deficiency is a legal return: sigma_min below the scale-free
    threshold RANK_RTOL * sigma_max flags it.
    """
    Ck = controllability_matrix(sys, k)
    svals = np.linalg.svd(Ck, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    smin = svals[min(sys.d_x, len(svals)) - 1] if svals.size else 0.0
    if Ck.shape[1] < sys.d_x or smax == 0.0 or smin < RANK_RTOL * smax:
        return False, math.inf
    return True, float(1.0 / smin**2)


def min_energy_controls(sys: LinearSystem, k: int, x_f) -> np.ndarray:
    """Minimum-energy controls u_1..u_k driving the noiseless system from 0
    to x_f, via C_k' (C_k C_k')^{-1} x_f. Returns shape (k, d_u); row t-1 is u_t.
    """
    x_f = _as_vector(x_f, sys.d_x, "target state")
    ok, _ = strong_controllability_check(sys, k)
    if not ok:
        raise NotControllableError(f"system not {k}-step controllable")
    Ck = controllability_matrix(sys, k)
    gram = Ck @ Ck.T
    v = Ck.T @ np.linalg.solve(gram, x_f)
    # Block j of v multiplies A^j B, i.e. it is control u_{k-j}.
    blocks = v.reshape(k, sys.d_u)
    return blocks[::-1].copy()


def _realify_eigendecomposition(F: np.ndarray):
    """Real (H, L) with F = H L H^{-1}; conjugate pairs become 2x2
    rotation-scaling blocks. Assumes the LAPACK convention that conjugate
    eigenvalues of a real matrix appear adjacently, positive imaginary first.
    """
    w, V = np.linalg.eig(F)
    n = F.shape[0]
    H = np.zeros((n, n))
    L = np.zeros((n, n))
    i = 0
    while i < n:
        lam = w[i]
        if abs(lam.imag) <= 1e-14 * max(1.0, abs(lam)):
            H[:, i] = V[:, i].real
            L[i, i] = lam.real
            i += 1
            continue
        if i + 1 >= n or abs(w[i + 1] - np.conj(lam)) > 1e-8 * max(1.0, abs(lam)):
            raise CertificateError("certificate not found: unpaired complex eigenvalue")
        a, b = lam.real, lam.imag
        H[:, i] = V[:, i].real
        H[:, i + 1] = V[:, i].imag
        L[i:i + 2, i:i + 2] = np.array([[a, b], [-b, a]])
        i += 2
    return H, L


def certify_strong_stability(sys: LinearSystem, K,
                             cond_cap: float = 1e8,
                             residual_tol: float = 1e-8) -> StabilityCertificate:
    """Build a strong-stability certificate for K on sys, or raise.

    The witness is the realified eigendecomposition of A + BK: H holds
    (paired) eigenvectors, L the block-diagonal rotation-scaling form, so
    ||L|| equals the spectral radius. kappa = max(||K||, cond(H)),
    gamma = 1 - ||L||.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape != (sys.d_u, sys.d_x):
        raise DimensionMismatchError("K", (sys.d_u, sys.d_x), K.shape)
    F = sys.A + sys.B @ K
    rho = max(abs(np.linalg.eigvals(F))) if F.size else 0.0
    if rho >= 1.0:
        raise CertificateError(f"unstable closed loop: spectral radius {rho:.6g} >= 1")
    H, L = _realify_eigendecomposition(F)
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        raise CertificateError("certificate not found: singular eigenvector matrix")
    cond = spectral_norm(H) * spectral_norm(Hinv)
    if cond > cond_cap:
        raise CertificateError(
            f"certificate not found: eigenvector condition {cond:.3g} above cap")
    resid = spectral_norm(F - H @ L @ Hinv)
    if resid > residual_tol * max(1.0, spectral_norm(F)):
        raise CertificateError(
            f"certificate not found: reconstruction residual {resid:.3g}")
    norm_L = spectral_norm(L)
    kappa = max(spectral_norm(K), cond)
    gamma = 1.0 - norm_L
    return StabilityCertificate(K=K, kappa=float(kappa), gamma=float(gamma), H=H, L=L)
