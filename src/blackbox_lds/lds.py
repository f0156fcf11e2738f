"""Core linear-dynamical-system model: plant data types, disturbance and cost
abstractions, the columnar run log and the row buffer `_Rows` it shares with
lowerbound, the one-step transition, and controllability / stability
primitives. The stepping loop itself lives in plant.py (BlackBoxPlant.apply,
driven by simulate).

Conventions: matrix norms are spectral, vector norms Euclidean. States evolve as
x_{t+1} = A x_t + B u_t + w_t with bounded disturbances ||w_t|| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    CertificateError,
    ConfigError,
    DimensionMismatchError,
    NotControllableError,
)

# Scale-free rank threshold: sigma_min < RANK_RTOL * sigma_max means rank deficient.
RANK_RTOL = 1e-10

# The range of the largest |entry| in which sums of squares neither overflow
# nor underflow past the last digits (also lowerbound's Gram-matrix guard)
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
    """The unknown plant (A, B). A that is not square, or B whose rows are
    not A's (a flat B is one input), raises DimensionMismatchError naming
    the matrix; a NaN or an infinity raises ConfigError naming it."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatchError("A", "(d_x, d_x)", A.shape)
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise DimensionMismatchError("B", (A.shape[0], "d_u"), B.shape)
        for name, m in (("A", A), ("B", B)):
            if not np.isfinite(m).all():
                raise ConfigError(name, "system matrices must be finite")
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
    controllability parameter kappa, and spectral-norm bound beta on A, B.
    k < 1, or a kappa or beta that is not finite and >= 1, raises
    ConfigError naming the field."""

    k: int
    kappa: float
    beta: float

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k", "k must be a positive integer")
        for name in ("kappa", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 1.0):
                raise ConfigError(name, f"{name} must be finite and >= 1")


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
    """Gaussian draws with the norm clipped at 1. A scale that is not finite
    and >= 0 raises ConfigError("scale")."""

    def __init__(self, d_x, scale=0.5, seed=0):
        if not (math.isfinite(scale) and scale >= 0.0):
            raise ConfigError("scale", "scale must be finite and >= 0")
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
    """Oblivious per-coordinate sinusoid, normalized so ||w_t|| <= 1.

    phases is d_x numbers, or one for every coordinate (default: spread over
    [0, pi/2)). An amplitude outside (0, 1], or an omega or a phase that is
    not finite, raises ConfigError naming it; phases of another length raise
    DimensionMismatchError("phases")."""

    def __init__(self, d_x, omega=0.2, phases=None, amplitude=1.0):
        if not 0 < amplitude <= 1.0:
            raise ConfigError("amplitude", "amplitude must be in (0, 1]")
        if phases is None:
            phases = np.linspace(0.0, np.pi / 2.0, d_x, endpoint=False)
        phases = np.asarray(phases, dtype=float)
        if phases.ndim == 0:
            phases = np.full(d_x, phases)
        if phases.shape != (d_x,):
            raise DimensionMismatchError("phases", (d_x,), phases.shape)
        for name, value in (("omega", omega), ("phases", phases)):
            if not np.isfinite(value).all():
                raise ConfigError(name, f"{name} must be finite")
        self.d_x = d_x
        self.omega = float(omega)
        self.amplitude = float(amplitude)
        self.phases = phases

    def __call__(self, t, x):
        raw = np.sin(self.omega * t + self.phases)
        return self.amplitude * raw / math.sqrt(self.d_x)


class SignAdversarialDisturbance(DisturbanceSource):
    """Pushes against the current state: w_t = -scale * x_t / ||x_t||.

    A state whose largest |entry| lies outside _NORM_SAFE_RANGE is divided
    by that entry first: its sum of squares would overflow, or underflow
    and lose the digits that keep ||w_t|| at scale. A scale outside (0, 1]
    raises ConfigError("scale")."""

    def __init__(self, scale=1.0):
        if not 0 < scale <= 1.0:
            raise ConfigError("scale", "scale must be in (0, 1]")
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
    A + BK = H L H^{-1} with ||H|| ||H^{-1}|| <= kappa and
    ||L|| = norm_L = 1 - gamma."""

    K: np.ndarray
    kappa: float
    H: np.ndarray
    L: np.ndarray
    norm_L: float

    @property
    def gamma(self) -> float:
        return 1.0 - self.norm_L

    def residual(self, sys: LinearSystem) -> float:
        """Reconstruction error ||A + BK - H L H^{-1}||."""
        recon = self.H @ self.L @ np.linalg.inv(self.H)
        return spectral_norm(sys.A + sys.B @ self.K - recon)


class _Rows:
    """Rows appended one at a time to a buffer whose capacity doubles when it
    fills (never past max_rows), so n appends copy O(n) rows in all instead
    of O(n^2); `view` is the (n, width) block written so far."""

    def __init__(self, width: int, max_rows: Optional[int] = None):
        self.max_rows = max_rows
        capacity = 8 if max_rows is None else min(8, max_rows)
        self.data = np.zeros((capacity, width))
        self.n = 0

    @property
    def view(self) -> np.ndarray:
        return self.data[: self.n]

    def append(self, row) -> None:
        if self.n == len(self.data):
            capacity = 2 * len(self.data)
            if self.max_rows is not None:
                capacity = min(capacity, self.max_rows)
            grown = np.zeros((capacity, self.data.shape[1]))
            grown[: self.n] = self.view
            self.data = grown
        self.data[self.n] = row
        self.n += 1


class RunLog:
    """One run as columns: round t is row t-1 of states(), controls(),
    disturbances() and costs(), each a copy of a float64 `_Rows` buffer that
    append copies x_t, u_t, w_t and c_t into, and entry t-1 of `phases`. The
    running cost, overall and per phase (phases in order of first
    appearance), is summed one round at a time in round order.

    A run with no disturbance (the lower-bound attacks) appends w = None on
    every round: it keeps no disturbance rows, and disturbances() is zeros."""

    def __init__(self, d_x: int, d_u: int, seed: Optional[int] = None):
        self.seed = seed
        self.cumulative_cost = 0.0
        self.phase_costs = {}
        self.phases = []
        self._x, self._u, self._w = _Rows(d_x), _Rows(d_u), _Rows(d_x)
        self._cost = _Rows(1)

    def append(self, x, u, w, cost: float, phase: str):
        self._x.append(x)
        self._u.append(u)
        if w is not None:
            self._w.append(w)
        self._cost.append(cost)
        self.phases.append(phase)
        self.cumulative_cost += cost
        self.phase_costs[phase] = self.phase_costs.get(phase, 0.0) + cost

    def __len__(self):
        return len(self.phases)

    def states(self) -> np.ndarray:
        return self._x.view.copy()

    def controls(self) -> np.ndarray:
        return self._u.view.copy()

    def disturbances(self) -> np.ndarray:
        if self._w.n < len(self):  # rounds logged with w = None
            return np.zeros((len(self), self._w.data.shape[1]))
        return self._w.view.copy()

    def costs(self) -> np.ndarray:
        return self._cost.view[:, 0].copy()


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


def _lyapunov(F: np.ndarray) -> np.ndarray:
    """X = F X F' + I for rho(F) < 1 by Smith doubling (X += P X P', then
    P = P P, from X = I and P = F) until a doubling leaves X unchanged;
    CertificateError if X overflows or 64 doublings do not settle it."""
    X, P = np.eye(len(F)), F
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for _ in range(64):
            X_next = X + P @ X @ P.T
            if not np.isfinite(X_next).all():
                raise CertificateError(
                    "certificate not found: the Lyapunov sum overflows")
            if np.array_equal(X_next, X):
                return 0.5 * (X + X.T)
            X, P = X_next, P @ P
    raise CertificateError("certificate not found: the Lyapunov sum does not settle")


def stability_witness(F, X, K) -> StabilityCertificate:
    """The witness of the closed loop F = A + BK from an X >= F X F' + I
    (Cohen et al., 2018): H = X^{1/2} and L = H^{-1} F H, so L L' <= I - X^{-1}
    and ||L||^2 <= 1 - 1/lambda_max(X), with equality if X = F X F' + I.
    kappa = max(||K||, cond(H)), where cond(H)^2 = lambda_max(X)/lambda_min(X)."""
    w, U = np.linalg.eigh(X)
    w = np.maximum(w, 1e-300)  # an X that rounding left indefinite gets a huge ||L||
    H = (U * np.sqrt(w)) @ U.T
    H = 0.5 * (H + H.T)
    L = (U * (1.0 / np.sqrt(w))) @ U.T @ F @ H
    kappa = max(spectral_norm(K), math.sqrt(w[-1] / w[0]))
    return StabilityCertificate(K=K, kappa=kappa, H=H, L=L, norm_L=spectral_norm(L))


def certify_strong_stability(sys: LinearSystem, K) -> StabilityCertificate:
    """stability_witness of K on sys from X = F X F' + I, F = A + BK, so
    ||L||^2 = 1 - 1/lambda_max(X).

    Every F with rho(F) < 1 has this witness, defective ones included. A
    normal F gets gamma = 1 - rho(F) and cond(H) <= 1/sqrt(1 - rho^2); any
    other F a smaller gamma (||L|| >= rho(F)) and a cond(H) that can be far
    larger: [[0.9, 5], [0, 0.9]] gets gamma = 7.6e-5 and cond(H) = 47.7.
    CertificateError when rho(F) >= 1, or when the computed ||L|| is not
    below 1 (a gamma below the rounding of ||L|| near 1).
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape != (sys.d_u, sys.d_x):
        raise DimensionMismatchError("K", (sys.d_u, sys.d_x), K.shape)
    F = sys.A + sys.B @ K
    rho = max(abs(np.linalg.eigvals(F))) if F.size else 0.0
    if rho >= 1.0:
        raise CertificateError(f"unstable closed loop: spectral radius {rho:.6g} >= 1")
    cert = stability_witness(F, _lyapunov(F), K)
    if not cert.norm_L < 1.0:
        raise CertificateError(
            f"certificate not found: the witness has ||L|| = {cert.norm_L:.17g}")
    return cert
