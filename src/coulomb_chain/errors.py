"""Exception types shared across the package."""


class ConfigError(ValueError):
    """An experiment or ring configuration is invalid or inconsistent."""


class CollisionError(RuntimeError):
    """Two neighboring particles came closer than the collision guard.

    The inverse-square repulsion makes real collisions impossible from the
    uniform rest start, so this always signals a numerical fault.
    """


class StiffnessError(RuntimeError):
    """The adaptive integrator's step size underflowed."""
