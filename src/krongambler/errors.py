"""Exception types shared across the package."""


class SpecError(ValueError):
    """Invalid chain or game specification."""


class SizeError(SpecError):
    """A construction would exceed the configured state-space cap."""


class StochasticityError(SpecError):
    """A matrix failed a required (sub)stochasticity check."""


class CommunicationError(SpecError):
    """Transient states of a built game do not form one communication class."""


class MonotonicityError(SpecError):
    """Operation requires a monotone chain with nonnegative spectrum."""


class DegenerateSpectrumError(SpecError):
    """An eigenvalue is too close to 1 for spectral-polynomial normalization."""


class LinkPrecisionError(SpecError):
    """A component's spectral link fails its identities in double precision."""


class HorizonError(RuntimeError):
    """Power iteration hit the step cap before the transient mass converged."""


class CouplingError(RuntimeError):
    """Coupled sample-path construction is unavailable or numerically stuck."""


class InternalCheckError(AssertionError):
    """A redundant internal cross-check failed; indicates a bug, not bad input."""
