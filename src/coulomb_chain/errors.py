"""Exception types shared across the package, and the value checks that raise them."""

import sys


class ConfigError(ValueError):
    """An invalid or inconsistent configuration; ``field`` is the path of the value at fault."""

    def __init__(self, reason: str, field: str | None = None):
        super().__init__(f"{field}: {reason}" if field else reason)
        self.reason, self.field = reason, field

    def within(self, prefix: str) -> "ConfigError":
        """The same complaint about the value nested under ``prefix``."""
        return ConfigError(self.reason, f"{prefix}.{self.field}" if self.field else prefix)


class CollisionError(RuntimeError):
    """Two neighboring particles came closer than the collision guard.

    The inverse-square repulsion makes real collisions impossible from the
    uniform rest start, so this always signals a numerical fault.
    """


class StiffnessError(RuntimeError):
    """The adaptive integrator's step size underflowed."""


def check_int(value, field: str, minimum: int) -> int:
    """``value``, which must be an int (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", field)
    if value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value!r}", field)
    return value


def check_real(value, field: str, positive: bool = False) -> float:
    """``value`` as a float; it must be a finite (if asked, positive) number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field)
    if not abs(value) <= sys.float_info.max or (positive and not value > 0):  # NaN fails too
        need = "positive and finite" if positive else "finite"
        raise ConfigError(f"must be {need}, got {value!r}", field)
    return float(value)
