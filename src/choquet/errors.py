"""Exception types shared across the package."""

from contextlib import contextmanager

import numpy as np


class ValidationError(ValueError):
    """An input fails a structural or numerical precondition."""


class IterationLimitError(RuntimeError):
    """The simplex pivot budget was exhausted before reaching a verdict."""


class ConsistencyError(RuntimeError):
    """Two computation routes that must agree disagreed beyond tolerance.

    This signals a tolerance breach or an engine bug, never bad user input.
    """


@contextmanager
def in_float_range(what):
    """Run the block with overflow raising: a FloatingPointError is an input error."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValidationError(f"{what} out of floating-point range: {exc}") from exc
