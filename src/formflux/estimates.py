"""Small value-with-uncertainty containers used across modules."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError


def check_exponent(p):
    """Raise ArgumentError unless the exponent p is finite and >= 1."""
    if not (math.isfinite(p) and p >= 1):
        raise ArgumentError(f"p must be >= 1 and finite, got {p!r}")


def check_integer(value, what):
    """value as an int.  An integral float such as 2.0 is accepted; a bool,
    a fraction, a non-finite value or a non-number is an ArgumentError that
    names `what`, never truncated as int() would."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and float(value).is_integer()):
        return int(value)
    raise ArgumentError(f"{what} must be an integer, got {value!r}")


def check_seed(seed, what="seed"):
    """seed as an int >= 0 (check_integer), else an ArgumentError naming what."""
    seed = check_integer(seed, what)
    if seed < 0:
        raise ArgumentError(f"{what} must be >= 0, got {seed}")
    return seed


def random_stream(seed):
    """seed if it is a Generator, else default_rng(SeedSequence(check_seed(seed)))."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(check_seed(seed)))


def within_3_sigma(a, sa, b, sb):
    """a <= b + 3 (sa + sb): a exceeds b by at most 3 combined standard errors."""
    return a <= b + 3 * (sa + sb)


def delta_method_root(power, power_err, p):
    """(value, err) of power^{1/p}, err by the delta method; (0, 0) when
    power <= 0."""
    if power <= 0.0:
        return 0.0, 0.0
    value = power ** (1.0 / p)
    # d(q^{1/p})/dq = q^{1/p - 1} / p
    return value, power_err * value / (p * power)


@dataclass(frozen=True)
class Estimate:
    """A numerical value with its error: 0.0 when the value is exact,
    otherwise a standard error (see the producing function)."""

    value: float
    error: float = 0.0

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error must be >= 0")


@dataclass(frozen=True)
class SeminormEstimate:
    """Monte Carlo estimate of a fixed-theta seminorm.

    ``value`` is the seminorm itself (p-th root of the estimated integral),
    ``stderr`` its delta-method standard error.  ``power_value`` and
    ``power_stderr`` are the p-th power mean and its standard error; theta
    sweeps extrapolate on the power scale.  ``config`` echoes the estimator
    configuration, seed and stream included, so that a result is fully
    reproducible from the record alone.
    """

    value: float
    stderr: float
    power_value: float
    power_stderr: float
    samples: int
    acceptance_ratio: float
    config: dict = field(default_factory=dict)

    def scaled(self, factor):
        """The estimate of |factor|*F from the shared-sample run on F."""
        a = abs(factor)
        p = self.config.get("p", 1.0)
        return SeminormEstimate(
            value=a * self.value,
            stderr=a * self.stderr,
            power_value=a**p * self.power_value,
            power_stderr=a**p * self.power_stderr,
            samples=self.samples,
            acceptance_ratio=self.acceptance_ratio,
            config=dict(self.config),
        )
