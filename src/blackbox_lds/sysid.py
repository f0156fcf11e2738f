"""Identification of (A, B) from a single trajectory: impulse-block estimates
M_j ~ A^j B, j = 0..k, give B_hat = M_0 and A_hat from X [M_0 ... M_{k-1}] =
[M_1 ... M_k], in one function (from_blocks) for both phases that identify.

Phase 1 (adv_sys_id) injects exponentially scaled basis-vector controls, one
input direction every k+1 rounds, with zero controls in between. Each probe
dwarfs everything the bounded adversarial noise (and earlier probes)
contributed, so the normalized responses are the blocks to an accuracy linear
in eps0. Phase 3 (closed_loop_sys_id) correlates the states with random +-1
probes played on top of a stabilizing K, which estimates the blocks of A + BK.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotControllableError, ProbeScalingError
from .lds import RANK_RTOL
from .plant import BlackBoxPlant


def probe_horizon(k: int, d_u: int) -> int:
    """Rounds the probing schedule controls, (k+1) d_u: phase 1 plays rounds
    1 .. T1-1, so it ends at T1 = (k+1) d_u + 1."""
    return (k + 1) * d_u


@dataclass(frozen=True)
class ProbePlan:
    """Control schedule for the identification phase.

    Probe i fires at round t = (i-1)(k+1) + 1 with u_t = xi_i * e_i and
    xi_i = lam^{t-1} * eps0^{-i}; all other rounds use zero control.
    """

    k: int
    d_u: int
    lam: float
    eps0: float
    xi: np.ndarray  # (d_u,) probe scales, strictly increasing

    @property
    def horizon(self) -> int:
        """Number of controlled rounds, (k+1) * d_u."""
        return probe_horizon(self.k, self.d_u)

    def control_at(self, t: int) -> np.ndarray:
        """Scheduled control for round t (1-based), zero off the probe grid."""
        u = np.zeros(self.d_u)
        if 1 <= t <= self.horizon and (t - 1) % (self.k + 1) == 0:
            i = (t - 1) // (self.k + 1) + 1
            u[i - 1] = self.xi[i - 1]
        return u

    def state_bound(self, t: int) -> float:
        """Worst-case ||x_t|| along the probing trajectory, valid for
        2 <= t <= horizon + 1 when ||x_1|| <= 1 and ||w|| <= 1:
        lam^{t-1} * eps0^{-i} with i the index of the latest fired probe."""
        if t < 2:
            raise ValueError("bound defined for t >= 2")
        j = (t - 2) % (self.k + 1)
        i = (t - 2 - j) // (self.k + 1) + 1
        return self.lam ** (t - 1) * self.eps0 ** (-i)


@dataclass
class EstimateBundle:
    """Identification output: impulse-block estimates and derived (A, B)."""

    M_hat: list  # M_hat[j] estimates A^j B, j = 0..k
    A_hat: np.ndarray
    B_hat: np.ndarray
    x_final: np.ndarray


def epsilon_zero(eps: float, d_u: int, k: int, lam: float, d_x: int,
                 kappa: float) -> float:
    """Base probe scale eps0 = eps / (100 d_u^2 k^2 lam^{3k} d_x sqrt(kappa)).
    An eps outside (0, 1/2) raises ConfigError("eps")."""
    if not 0.0 < eps < 0.5:
        raise ConfigError("eps", "accuracy parameter eps must be in (0, 1/2)")
    if min(d_u, k, lam, d_x, kappa) <= 0:
        raise ValueError("all arguments must be positive")
    try:
        denom = 1e2 * d_u**2 * k**2 * lam ** (3 * k) * d_x * math.sqrt(kappa)
    except OverflowError:
        denom = math.inf
    if not math.isfinite(denom):
        raise ProbeScalingError("probe scaling not representable: lam^{3k} overflows")
    value = eps / denom
    if value == 0.0:
        raise ProbeScalingError(
            "probe scaling not representable: eps0 underflows to zero")
    return value


def probe_plan(k: int, d_u: int, lam: float, eps0: float) -> ProbePlan:
    if not 0.0 < eps0 < 1.0:
        raise ValueError("eps0 must be in (0, 1)")
    if lam < 1.0:
        raise ValueError("lam must be >= 1")
    xi = np.empty(d_u)
    for i in range(1, d_u + 1):
        t = (i - 1) * (k + 1) + 1
        try:
            val = lam ** (t - 1) * eps0 ** (-i)
        except OverflowError:
            val = math.inf
        if not math.isfinite(val):
            raise ProbeScalingError(f"probe scaling overflow at probe i={i}")
        xi[i - 1] = val
    return ProbePlan(k=k, d_u=d_u, lam=float(lam), eps0=float(eps0), xi=xi)


def assemble_estimates(states, plan: ProbePlan) -> EstimateBundle:
    """M_hat_j, and (A_hat, B_hat) from them, from the recorded states
    x_1..x_{(k+1)d_u + 1}: the response to probe i observed j+1 rounds later
    sits at x_{(i-1)(k+1) + j + 2}; dividing by xi_i gives column i of A^j B."""
    k, d_u = plan.k, plan.d_u
    need = plan.horizon + 1
    if len(states) < need:
        raise IndexError(f"need {need} recorded states, got {len(states)}")
    states = [np.asarray(s, dtype=float) for s in states]
    d_x = states[0].shape[0]
    M_hat = []
    for j in range(k + 1):
        cols = np.empty((d_x, d_u))
        for i in range(1, d_u + 1):
            l = (i - 1) * (k + 1) + j + 2
            cols[:, i - 1] = states[l - 1] / plan.xi[i - 1]
        M_hat.append(cols)
    return EstimateBundle(M_hat, *from_blocks(M_hat), states[need - 1].copy())


def solve_A(C0: np.ndarray, C1: np.ndarray) -> np.ndarray:
    """A_hat = C1 C0' (C0 C0')^{-1}, the row-wise least-squares solution of
    X C0 = C1. C0 here estimates the controllability matrix, so a singular
    Gram matrix signals a broken identification run."""
    svals = np.linalg.svd(C0, compute_uv=False)
    if (C0.shape[1] < C0.shape[0] or svals[0] == 0.0
            or svals[C0.shape[0] - 1] < RANK_RTOL * svals[0]):
        raise NotControllableError(
            "estimates not controllable; increase eps accuracy or check k, kappa")
    gram = C0 @ C0.T
    return np.linalg.solve(gram, C0 @ C1.T).T


def from_blocks(M_hat) -> tuple:
    """(A_hat, B_hat) from impulse-block estimates M_hat[j] ~ A^j B, j = 0..k:
    B_hat = M_0 and A_hat = solve_A([M_0 ... M_{k-1}], [M_1 ... M_k])."""
    return solve_A(np.hstack(M_hat[:-1]), np.hstack(M_hat[1:])), M_hat[0].copy()


def adv_sys_id(plant: BlackBoxPlant, eps: float, lam: float, k: int,
               kappa: float) -> EstimateBundle:
    """Run the probing schedule on the live plant and identify (A, B).

    Requires lam >= 4 (max(||A||, ||B||) + 1); under bounded noise the output
    satisfies ||A_hat - A|| <= eps and ||B_hat - B|| <= eps. The phase pays
    the (exponentially large) probing costs on the plant's own cost sequence.
    """
    x_now = plant.state
    if np.linalg.norm(x_now) > 1.0:
        warnings.warn("||x1|| > 1: identification error bounds degrade",
                      stacklevel=2)
    eps0 = epsilon_zero(eps, plant.d_u, k, lam, plant.d_x, kappa)
    plan = probe_plan(k, plant.d_u, lam, eps0)
    states = [x_now]
    for t in range(1, plan.horizon + 1):
        states.append(plant.apply(plan.control_at(t), phase="sysid").x_next)
    return assemble_estimates(states, plan)


def closed_loop_sys_id(plant: BlackBoxPlant, K, k: int, rounds: int, seed) -> tuple:
    """Identify (A, B) again under a stabilizing K: play u_t = K x_t + eta_t,
    eta_t uniform on {-1, 1}^{d_u} from default_rng(seed or 0), for `rounds`
    rounds (at least k + 1). N_j = mean_t x_{t+j+1} eta_t' estimates
    (A + BK)^j B, j = 0..k, unbiased when w is oblivious (eta_t is independent
    of it and of x_t); from_blocks gives (A + BK, B), and A_hat = (A + BK)_hat
    - B_hat K (Hazan, Kakade & Singh, ALT 2020)."""
    if rounds < k + 1:
        raise ValueError(f"{rounds} probing rounds cannot estimate {k + 1} blocks")
    rng = np.random.default_rng(seed or 0)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    xs, etas = [plant.state], []
    for _ in range(rounds):
        etas.append(rng.choice([-1.0, 1.0], size=plant.d_u))
        xs.append(plant.apply(K @ xs[-1] + etas[-1], phase="reidentify").x_next)
    X, E = np.array(xs), np.array(etas)
    N = [X[j + 1:].T @ E[:rounds - j] / (rounds - j) for j in range(k + 1)]
    F_hat, B_hat = from_blocks(N)
    return F_hat - B_hat @ K, B_hat
