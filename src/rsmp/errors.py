"""Exception hierarchy shared across the package, and the input checks of its records."""

import numpy as np


class RsmpError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(RsmpError):
    """Operands disagree on grid, mode, dimensions, or path counts."""


class DomainError(RsmpError):
    """A numeric argument lies outside its admissible range."""


class ValueOffGrid(RsmpError):
    """A control value is farther than the snap tolerance from every grid point."""


class MissingPaths(RsmpError):
    """A feedback control was paired without the path ensemble needed to resolve cells."""


class NonFiniteCoefficient(RsmpError):
    """A coefficient evaluation produced NaN or Inf."""


class BlowUp(RsmpError):
    """A simulated state exceeded the blow-up guard."""

    def __init__(self, step, max_norm):
        self.step = step
        self.max_norm = max_norm
        super().__init__(f"state norm {max_norm:.3e} exceeded guard at step {step}")


class SingularRegression(RsmpError):
    """Least-squares normal matrix unusable even after the ridge fallback."""

    def __init__(self, step, message=""):
        self.step = step
        super().__init__(f"singular regression at step {step}" + (f": {message}" if message else ""))


class NonPSD(RsmpError):
    """A matrix that must stay symmetric positive (semi)definite lost that property."""


class UnknownBenchmark(RsmpError):
    """Benchmark name not in the registry."""


def frozen_field(record, name: str, ndmin: int, what: str | None = None) -> np.ndarray:
    """Replace the field `name` of a (frozen) dataclass record with a
    read-only float copy of at least ndmin axes, and return it.

    The copy leaves the caller's array writable.  A NaN or Inf entry raises
    DomainError("<what> must be finite"): a NaN passes every comparison a
    bound or simplex check makes.
    """
    arr = np.array(getattr(record, name), dtype=float, ndmin=ndmin)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what or name} must be finite")
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)
    return arr


def require_count(value, what: str, low: int = 1) -> int:
    """value as an int; DomainError unless it is an integer of at least low.

    A bool or a float (an integral one such as 2.0 included) is no count; a
    NaN or Inf is reported as not finite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        if isinstance(value, (float, np.floating)) and not np.isfinite(value):
            raise DomainError(f"{what} must be finite, got {value!r}")
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{what} must be at least {low}, got {value!r}")
    return int(value)


def require_seed(value, what: str = "seed") -> int:
    """value as an int Philox key; DomainError unless an integer in [0, 2**128)."""
    seed = require_count(value, what, low=0)
    if seed >= 2**128:
        raise DomainError(f"{what} must lie in [0, 2**128), the Philox key range, got {value!r}")
    return seed


def require_positive(value, what: str, strict: bool = True) -> float:
    """value as a float; DomainError unless it is a finite real number above
    0, or at least 0 when not strict.  A bool, a str or None is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    if not -np.inf < value < np.inf:  # NaN fails both comparisons
        raise DomainError(f"{what} must be finite, got {value!r}")
    if value < 0 or (strict and value == 0):
        raise DomainError(f"{what} must be {'positive' if strict else 'nonnegative'}, got {value!r}")
    return float(value)


def require_tolerance(value, what: str) -> float:
    """value as a float; DomainError unless a finite, nonnegative real number."""
    return require_positive(value, what, strict=False)
