"""Exception types shared across the package."""


class OutOfDomainError(ValueError):
    """Input lies outside the region where the quantity is defined."""


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, step: int, time: float):
        self.step = step
        self.time = time
        super().__init__(f"non-finite state at step {step} (t = {time:g} s)")


class NoEquilibriumError(RuntimeError):
    """Newton iteration did not converge; gains may be below critical."""


class SingularJacobianError(RuntimeError):
    """Newton Jacobian lost rank at an iterate: a cos(x_i) = 0 crossing, or
    a disconnected positive-gain graph."""


class NetworkFileError(ValueError):
    """Network definition file is malformed or fails validation."""
