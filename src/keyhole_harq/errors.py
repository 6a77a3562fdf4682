"""Exception types shared across the package, and the two argument rules
every public entry point applies: ``check_count`` for antenna counts,
rounds, trials, seeds and lanes, ``check_real`` for rates, SNRs and gains.
Both raise ``DomainError`` naming the argument and its value as given."""

import math
import operator


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the requested quantity."""


class UnsupportedConfigError(ValueError):
    """The requested quantity is not defined for this antenna configuration."""


class SimulationInfeasibleError(ValueError):
    """The requested simulation cannot resolve the target probability.

    ``required_trials`` is the smallest trial count that would make the
    estimate meaningful at the configured operating point.
    """

    def __init__(self, message: str, required_trials: int):
        super().__init__(message)
        self.required_trials = required_trials


def check_count(name: str, v, least: int = 1) -> int:
    """v as an int: an integer (``operator.index`` takes it) >= least."""
    try:
        v = operator.index(v)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {v!r}") from None
    if v < least:
        raise DomainError(f"{name} must be >= {least}, got {v}")
    return v


def check_real(name: str, v, positive: bool = False) -> float:
    """v as a float: finite and >= 0, or > 0 when ``positive`` is set."""
    try:
        x = float(v)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {v!r}") from None
    if (0.0 < x if positive else 0.0 <= x) and x < math.inf:  # nan fails
        return x
    raise DomainError(
        f"{name} must be finite and {'>' if positive else '>='} 0, got {v}")
