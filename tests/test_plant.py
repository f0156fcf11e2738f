import dataclasses
import tracemalloc
from sys import getsizeof

import numpy as np
import pytest

from blackbox_lds import (
    BlackBoxPlant,
    ClippedGaussianDisturbance,
    CostFunction,
    LinearSystem,
    SinusoidalDisturbance,
    ZeroDisturbance,
    simulate,
)
from blackbox_lds.errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteValueError,
)

QUAD = CostFunction.quadratic()


def _log_bytes(log):
    """The bytes a RunLog holds: its float64 row buffers at full
    capacity and its phase list's slots (the phase strings are shared)."""
    rows = (log._x, log._u, log._w, log._cost)
    return sum(r.data.nbytes for r in rows) + getsizeof(log.phases)


class TestBlackBoxContract:
    def test_apply_advances_round_and_charges_cost(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [2.0])
        assert plant.t == 1
        outcome = plant.apply([1.0], phase="sim")
        assert plant.t == 2
        assert outcome.cost == pytest.approx(5.0)  # 2^2 + 1^2
        assert outcome.x_next[0] == pytest.approx(2.0)
        assert plant.total_cost == pytest.approx(5.0)

    def test_cost_function_revealed_after_action(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [1.0])
        outcome = plant.apply([0.0], phase="sim")
        gx, gu = outcome.cost_fn.gradient(np.array([1.0]), np.array([0.0]))
        assert gx[0] == pytest.approx(2.0)

    def test_control_dimension_checked(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [1.0])
        with pytest.raises(DimensionMismatchError, match="control"):
            plant.apply([1.0, 2.0], phase="sim")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x1_is_a_config_error(self, bad):
        # named at construction, not on round 1 as NonFiniteValueError("cost", 1)
        sys = LinearSystem([[0.5, 0.0], [0.0, 0.5]], [[1.0], [0.0]])
        with pytest.raises(ConfigError) as err:
            BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [0.0, bad])
        assert err.value.path == "x1"

    def test_nonfinite_control_rejected_with_round(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [1.0])
        plant.apply([0.0], phase="sim")
        with pytest.raises(NonFiniteValueError) as err:
            plant.apply([np.inf], phase="sim")
        assert err.value.step == 2

    def test_cost_overflow_rejected_before_the_round_is_logged(self):
        # x_1 and u_1 are finite but ||x_1||^2 = 1e400 is not; the round used
        # to be logged with cost inf, and total_cost became inf
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [1e200])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValueError) as err:
            plant.apply([0.0], phase="sim")
        assert (err.value.what, err.value.step) == ("cost", 1)
        assert (plant.t, len(plant.log), plant.total_cost) == (1, 0, 0.0)

    def test_state_is_a_copy(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [1.0])
        x = plant.state
        x[0] = 99.0
        assert plant.state[0] == 1.0

    def test_opaque_mode_blocks_introspection(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [1.0],
                              simulation_mode=False)
        plant.apply([0.0], phase="sim")
        for accessor in (lambda: plant.log, plant.true_system,
                         plant.disturbance_history, plant.cost_spec):
            with pytest.raises(PermissionError):
                accessor()
        # cumulative cost stays observable: the learner pays it
        assert plant.total_cost >= 0.0

    def test_cost_scale_is_the_round1_g(self):
        # readable without simulation mode, for every form of cost spec
        sys = LinearSystem([[0.5]], [[1.0]])
        steep = dataclasses.replace(QUAD, G=7.0)
        for costs in (steep, [steep, QUAD], lambda t: steep if t == 1 else QUAD):
            plant = BlackBoxPlant(sys, ZeroDisturbance(), costs, [1.0],
                                  simulation_mode=False)
            assert plant.cost_scale == 7.0
        for costs in ([], [object()], lambda t: None):
            plant = BlackBoxPlant(sys, ZeroDisturbance(), costs, [1.0])
            with pytest.raises(ConfigError, match="costs"):
                plant.cost_scale

    def test_simulation_mode_records_everything(self):
        sys = LinearSystem([[0.5]], [[1.0]])
        dist = SinusoidalDisturbance(1, omega=0.4)
        plant = BlackBoxPlant(sys, dist, QUAD, [0.3])
        for _ in range(5):
            plant.apply([0.1], phase="sim")
        log = plant.log
        assert len(log) == 5
        assert plant.disturbance_history().shape == (5, 1)
        assert plant.true_system() is sys


class TestSimulateContract:
    def test_controller_gets_a_private_copy(self):
        sys = LinearSystem([[1.0]], [[1.0]])
        seen = []

        def controller(t, x):
            seen.append(x.copy())
            x[0] = -1e9  # must not corrupt the simulation
            return np.zeros(1)

        log = simulate(sys, controller, ZeroDisturbance(), QUAD, 3, [1.0])
        assert list(log.states()[:, 0]) == [1.0, 1.0, 1.0]
        assert [s[0] for s in seen] == [1.0, 1.0, 1.0]

    def test_matches_a_hand_driven_plant(self, rng):
        sys = LinearSystem(0.4 * rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
        x1 = rng.normal(size=3)
        K = 0.2 * rng.normal(size=(2, 3))
        costs = [CostFunction.weighted_quadratic(np.diag([1.0, 2.0, 3.0]), np.eye(2)),
                 QUAD] * 10

        def controller(t, x):
            return K @ x + np.sin(t)

        log = simulate(sys, controller, ClippedGaussianDisturbance(3, seed=4), costs,
                       20, x1, phase="probe", seed=9)
        plant = BlackBoxPlant(sys, ClippedGaussianDisturbance(3, seed=4), costs, x1,
                              seed=9)
        for t in range(1, 21):
            plant.apply(controller(t, plant.state), phase="probe")
        assert len(log) == len(plant.log) == 20
        assert log.seed == plant.log.seed == 9
        assert log.phases == plant.log.phases
        assert np.array_equal(log.costs(), plant.log.costs())
        assert np.array_equal(log.states(), plant.log.states())
        assert np.array_equal(log.controls(), plant.log.controls())
        assert np.array_equal(log.disturbances(), plant.log.disturbances())
        assert log.cumulative_cost == plant.total_cost
        assert log.phase_costs == plant.log.phase_costs == {"probe": plant.total_cost}

    def test_state_overflow_is_a_nonfinite_state(self):
        # x_2 = 1e150, x_3 = 1e300, x_4 overflows; the cost is zero, since
        # c_3 = ||x_3||^2 would overflow first
        sys = LinearSystem([[1e150]], [[1.0]])
        zero = CostFunction.weighted_quadratic([[0.0]], [[0.0]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValueError) as err:
            simulate(sys, lambda t, x: np.zeros(1), ZeroDisturbance(), zero, 5, [1.0])
        assert (err.value.what, err.value.step) == ("state", 4)


class TestRunLog:
    def test_phase_costs_sum_in_round_order(self, rng):
        sys = LinearSystem([[0.9]], [[1.0]])
        plant = BlackBoxPlant(sys, ClippedGaussianDisturbance(1, seed=2), QUAD, [0.3])
        phases = ["sysid"] * 3 + ["decay"] * 5 + ["gpc"] * 300
        for phase in phases:  # costs over six decades, so order shows
            plant.apply(rng.normal(size=1) * 10.0 ** rng.uniform(-3, 3), phase=phase)
        expected = {}
        for phase, cost in zip(plant.log.phases, plant.log.costs().tolist()):
            expected[phase] = expected.get(phase, 0.0) + cost
        assert plant.log.phase_costs == expected
        assert list(plant.log.phase_costs) == ["sysid", "decay", "gpc"]

    def test_columns_are_copies_of_the_rounds(self):
        sys = LinearSystem([[0.5, 0.0], [0.0, 0.5]], [[1.0], [0.0]])
        plant = BlackBoxPlant(sys, ZeroDisturbance(), QUAD, [1.0, 2.0])
        u = np.array([0.5])
        plant.apply(u, phase="a")
        u[0] = 99.0  # the caller's array is not the logged one
        plant.apply(u, phase="b")
        log = plant.log
        assert log.states().tolist() == [[1.0, 2.0], [1.0, 1.0]]
        assert log.controls().tolist() == [[0.5], [99.0]]
        assert log.disturbances().tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert log.costs().tolist() == [5.25, 2.0 + 99.0**2]
        assert log.phases == ["a", "b"]
        for column in (log.states, log.controls, log.disturbances, log.costs):
            column()[0] = -1.0
        assert log.states()[0].tolist() == [1.0, 2.0]
        assert log.costs()[0] == 5.25

    @staticmethod
    def _scalar_run(rounds, plant=None):
        plant = plant or BlackBoxPlant(LinearSystem([[0.5]], [[1.0]]),
                                       SinusoidalDisturbance(1, omega=0.2), QUAD,
                                       [0.0])
        u = np.zeros(1)
        for t in range(rounds):
            plant.apply(u, phase="gpc" if t % 2 else "decay")
        return plant

    def test_a_round_keeps_at_most_64_bytes(self):
        # one uninterrupted scalar trajectory: x, u, w and c take 32 B of
        # float64 rows and the phase an 8 B list slot, plus doubling slack;
        # where T falls against a doubling decides the slack, so T stays
        plant = self._scalar_run(200_000)
        assert len(plant.log) == 200_000
        assert _log_bytes(plant.log) / 200_000 <= 64

    def test_apply_keeps_nothing_outside_the_log(self):
        # under tracemalloc, a window of rounds after a first one (which
        # meets one-off allocations) grows the traced memory by what the
        # log's buffers and phase list grew by, less than a byte a round;
        # the window crosses a doubling of the row buffers
        plant = self._scalar_run(0)
        tracemalloc.start()
        try:
            for _ in range(2):
                traced, held = tracemalloc.get_traced_memory()[0], _log_bytes(plant.log)
                self._scalar_run(2000, plant)
                outside = (tracemalloc.get_traced_memory()[0] - traced
                           - (_log_bytes(plant.log) - held))
        finally:
            tracemalloc.stop()
        assert len(plant.log) == 4000
        assert outside < 2000
