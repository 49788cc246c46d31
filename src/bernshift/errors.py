"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A sealed Bernoulli cache was asked for an index beyond its capacity."""


class InvariantViolation(RuntimeError):
    """An identity that must hold exactly did not; the message carries the witness."""


class WorkerDied(RuntimeError):
    """A sweep worker process died before returning its chunk."""
