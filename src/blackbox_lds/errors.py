"""Exception types shared across the package."""

from __future__ import annotations


class BlackBoxControlError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(BlackBoxControlError):
    """An operand has the wrong shape; carries the operand name."""

    def __init__(self, operand, expected, got):
        self.operand = operand
        self.expected = expected
        self.got = got
        super().__init__(f"{operand}: expected shape {expected}, got {got}")


class NonFiniteValueError(BlackBoxControlError):
    """A state, control or reported value became NaN/inf; carries what it
    is and the step index (None for a value that belongs to no step)."""

    def __init__(self, what, step=None):
        self.what = what
        self.step = step
        where = "" if step is None else f" at step {step}"
        super().__init__(f"non-finite {what}{where}")


class NotControllableError(BlackBoxControlError):
    """Controllability matrix is rank deficient at the requested index."""


class CertificateError(BlackBoxControlError):
    """Strong-stability certificate cannot be produced."""


class ProbeScalingError(BlackBoxControlError):
    """Probe scaling factors are not representable in double precision."""


class SdpInfeasibleError(BlackBoxControlError):
    """Feasibility solver did not reach the requested residual."""

    def __init__(self, message, residual=None, iterations=None):
        self.residual = residual
        self.iterations = iterations
        super().__init__(message)


class NotStabilizingError(BlackBoxControlError):
    """Recovered controller fails to contract the state."""


class PhaseError(BlackBoxControlError):
    """Pipeline failure, tagged with the phase that raised it."""

    def __init__(self, phase, message):
        self.phase = phase
        super().__init__(f"[{phase}] {message}")


class ComparatorUnavailableError(BlackBoxControlError):
    """Regret requested but no comparator value is present."""


class NonDeterministicControllerError(BlackBoxControlError):
    """Controller produced different controls on identical histories."""


class ConstructionDriftError(BlackBoxControlError):
    """The deterministic adversary's coefficient recursion and the measured
    state disagree beyond the rounding tolerance."""


class ConfigError(BlackBoxControlError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
