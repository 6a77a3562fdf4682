"""Exception types shared across the package."""


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
