"""Interactive single-trajectory plant, and the closed-loop simulation that
drives it.

The plant enforces the black-box contract: callers observe states and pay
costs, and only after the control is committed is the revealed cost function
made available. The true system, the applied disturbances, and the full log
stay private during the run; in simulation mode they can be inspected
afterwards for verification and regret reporting. BlackBoxPlant.apply is
the only code that plays a round: it validates the control, pays c_t, draws
w_t, steps and records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteValueError
from .lds import (
    CostFunction,
    CostSpec,
    DisturbanceSource,
    LinearSystem,
    RunLog,
    cost_at,
)


@dataclass
class StepOutcome:
    x_next: np.ndarray
    cost: float
    cost_fn: CostFunction  # revealed after acting; needed for gradient updates


class BlackBoxPlant:
    """One uninterrupted trajectory of an unknown LTI system.

    Usage: read .state, call .apply(u, phase) to commit a control. There are
    no resets. `simulation_mode` gates post-hoc introspection (true system,
    disturbance history) used for verification; an opaque deployment would
    construct the plant with simulation_mode=False. An initial state x1
    that is not d_x long raises DimensionMismatchError("x1"), one with a
    NaN or an infinity ConfigError("x1").
    """

    def __init__(self, sys: LinearSystem, disturbance: DisturbanceSource,
                 costs: CostSpec, x1, seed: Optional[int] = None,
                 simulation_mode: bool = True):
        self._sys = sys
        self._dist = disturbance
        self._costs = costs
        self.simulation_mode = simulation_mode
        x1 = np.asarray(x1, dtype=float).reshape(-1)
        if x1.shape != (sys.d_x,):
            raise DimensionMismatchError("x1", (sys.d_x,), x1.shape)
        if not np.isfinite(x1).all():
            raise ConfigError("x1", "the initial state must be finite")
        self._x = x1.copy()
        self._t = 1
        self._log = RunLog(sys.d_x, sys.d_u, seed=seed)

    @property
    def d_x(self) -> int:
        return self._sys.d_x

    @property
    def d_u(self) -> int:
        return self._sys.d_u

    @property
    def t(self) -> int:
        """Current round (1-based): the next apply() pays cost c_t."""
        return self._t

    @property
    def state(self) -> np.ndarray:
        return self._x.copy()

    @property
    def cost_scale(self) -> float:
        """The declared Lipschitz scale G of the round-1 cost. G is part of
        the cost contract, so it is readable outside simulation mode."""
        try:
            cost = cost_at(self._costs, 1)
        except (IndexError, TypeError) as exc:
            raise ConfigError("costs", f"no round-1 cost ({exc})") from exc
        if not isinstance(cost, CostFunction):
            raise ConfigError("costs", f"round-1 cost is a {type(cost).__name__}, "
                                       "not a CostFunction")
        return float(cost.G)

    def apply(self, u, phase: str) -> StepOutcome:
        """Commit control u_t, pay c_t(x_t, u_t), advance to x_{t+1}.

        u, c_t and w_t are validated once, here (a c_t that overflows from a
        finite x_t and u_t is a NonFiniteValueError), and the transition is
        lds.step's expression A x + B u + w written inline, so x_{t+1} is
        bitwise what step returns. The round goes straight into the log,
        whose row buffers copy x_t, u_t and w_t, so nothing is copied here
        for it.
        """
        sys, x = self._sys, self._x
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.shape != (sys.d_u,):
            raise DimensionMismatchError("control", (sys.d_u,), u.shape)
        if not np.isfinite(u).all():
            raise NonFiniteValueError("control", self._t)
        cost_fn = cost_at(self._costs, self._t)
        c = float(cost_fn.value(x, u))
        if not math.isfinite(c):
            raise NonFiniteValueError("cost", self._t)
        w = np.asarray(self._dist(self._t, x.copy()), dtype=float).reshape(-1)
        if w.shape != (sys.d_x,):
            raise DimensionMismatchError("disturbance", (sys.d_x,), w.shape)
        x_next = sys.A @ x + sys.B @ u + w
        if not np.isfinite(x_next).all():
            raise NonFiniteValueError("state", self._t + 1)
        self._log.append(x, u, w, c, phase)
        self._x = x_next
        self._t += 1
        return StepOutcome(x_next=x_next.copy(), cost=c, cost_fn=cost_fn)

    # -- post-hoc introspection (simulation mode only) ----------------------

    def _require_simulation(self, what):
        if not self.simulation_mode:
            raise PermissionError(f"{what} unavailable outside simulation mode")

    @property
    def log(self) -> RunLog:
        self._require_simulation("trajectory log")
        return self._log

    def true_system(self) -> LinearSystem:
        self._require_simulation("true system")
        return self._sys

    def disturbance_history(self) -> np.ndarray:
        self._require_simulation("disturbance history")
        return self._log.disturbances()

    def cost_spec(self) -> CostSpec:
        self._require_simulation("cost spec")
        return self._costs

    @property
    def total_cost(self) -> float:
        return self._log.cumulative_cost


def simulate(sys: LinearSystem, controller, dist: DisturbanceSource,
             costs: CostSpec, T: int, x1, phase: str = "sim",
             seed: Optional[int] = None) -> RunLog:
    """Roll the closed loop for T rounds from x1 on a BlackBoxPlant; return
    its RunLog, whose row t-1 is round t, every round tagged `phase`.

    The controller is a callback (t, x_t) -> u_t and never sees (A, B); it
    observes only the state trajectory, through a private copy. Disturbances
    are drawn before the control takes effect, i.e. w_t may depend on x_t
    but not u_t.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    plant = BlackBoxPlant(sys, dist, costs, x1, seed=seed)
    for t in range(1, T + 1):
        plant.apply(controller(t, plant.state), phase)
    return plant.log
