"""Small value-with-uncertainty containers used across modules."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Estimate:
    """A numerical value with a conservative error estimate.

    ``error`` mixes quadrature and statistical contributions; callers that
    need to distinguish them should look at the producing function.
    """

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
    configuration, including the shard count, so that a result is fully
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
