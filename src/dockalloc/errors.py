"""Exception types, and the whole-number check of the loaders, shared
across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """Malformed or out-of-contract input data."""


class CapacityLimitError(ValidationError):
    """A cost-table request exceeded the configured capacity ceiling."""


class InfeasibleError(RuntimeError):
    """The constraint system admits no allocation.

    Carries a structured ``report`` dict naming the violated condition so
    callers (and the CLI) can surface it without parsing the message.
    """

    def __init__(self, reason: str, **details):
        super().__init__(reason)
        self.report = {"reason": reason, **details}


def whole_number(value, what: str) -> int:
    """``value`` as an ``int`` if it is a finite whole number (or a string of
    one), else a ``ValidationError``: a loader never truncates 3.7 to 3."""
    if isinstance(value, float):
        if not value.is_integer():  # also False for NaN and infinities
            raise ValidationError(f"{what} must be a whole number, got {value}")
        return int(value)
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a whole number, got {value!r}") from exc
