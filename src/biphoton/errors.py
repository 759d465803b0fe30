"""Exception types shared across the package."""

from __future__ import annotations


class BiphotonError(Exception):
    """Base class for all package-specific errors."""


class GridError(BiphotonError, ValueError):
    """Invalid grid construction or mismatched grids."""


class SamplingGuardError(BiphotonError, ValueError):
    """Quadratic propagation phase is undersampled on the current grid.

    Attributes
    ----------
    required_n : int
        Smallest power-of-two point count (at the current sample spacing)
        for which the propagation step would pass the guard.
    """

    def __init__(self, message: str, required_n: int):
        super().__init__(message)
        self.required_n = required_n


class EdgeLeakageError(BiphotonError, ValueError):
    """Too much field energy sits in the outer region of the periodic window."""


class DarkConditionalError(BiphotonError, ValueError):
    """Conditioning on an outcome of numerically zero probability."""


class ZeroOutcomeError(BiphotonError, ValueError):
    """A measurement outcome has zero probability under every preparation."""


class ConfigError(BiphotonError, ValueError):
    """Scenario configuration problem, with the offending key and line when
    known (``key`` and ``line`` attributes; the line prefixes the message)."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.key = key


class SweepError(BiphotonError, RuntimeError):
    """One or more positions of a conditioning sweep failed.

    Attributes
    ----------
    failures : list of (position, exception)
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = "; ".join(f"x1={pos:g}: {exc}" for pos, exc in self.failures)
        super().__init__(f"{len(self.failures)} sweep position(s) failed: {lines}")
