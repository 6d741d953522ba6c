"""Exception types shared across the package, and the value checks that raise them."""

import math
import numbers
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
    """``value`` as an int: an integral number (numpy's too, not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"expected an integer, got {value!r}", field)
    if value < minimum:
        raise ConfigError(f"must be >= {minimum}, got {value!r}", field)
    return int(value)


def check_real(value, field: str, positive: bool = False) -> float:
    """``value`` as a float; it must be a finite (if asked, positive) real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"expected a number, got {value!r}", field)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond double range
        number = math.inf
    if not abs(number) <= sys.float_info.max or (positive and not number > 0):  # NaN fails too
        need = "positive and finite" if positive else "finite"
        raise ConfigError(f"must be {need}, got {value!r}", field)
    return number


def check_keys(obj: dict, known: tuple[str, ...], path: str | None = None) -> None:
    """Reject the first key of ``obj`` outside ``known``, named by its path under ``path``."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown key; expected one of {', '.join(known)}",
                              f"{path}.{key}" if path else key)
