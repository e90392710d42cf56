"""Monte Carlo estimators for singular-kernel multifunction seminorms.

The degree-k seminorm of a multifunction F on a bounded open set E is

    |F|^p_{theta} = (1-theta)^k int_E dx_0
        int ... int  |F(x_0, .., x_k)|^p
            prod_i |x_i - x_0|^{-(n + p theta)} dx_1 .. dx_k,

with the inner points restricted by the variant: the full variant allows
all x_i in E, the ball variant adds |x_i - x_0| < R, the cone variant
requires |x_i - x_0| < c dist(x_0, boundary E) (strict), and ball-cone
takes both caps.

Written in polar coordinates around x_0, the radial kernel collapses to
r^{p(1-theta)-1} dr once the radii are factored out of F.  The estimator
samples each radius by the exact inverse CDF of that density,
r = R_eff U^{1/(p(1-theta))}, so the singular kernel cancels analytically
and the per-factor weight is the constant

    H^{n-1}(S^{n-1}) * R_eff^{p(1-theta)} / p

(the 1/(1-theta) from the density normalization cancels the (1-theta)^k
prefactor in closed form).  Multifunctions are evaluated through their
scaled form F / prod r_i, which stays finite as the radii hit the float
floor near theta = 1.

Samples are split over _STREAMS independently seeded streams, each drawn
_CHUNK tuples at a time, so the result is a deterministic function of the
config and its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .alexander_spanier import IntegrationMultifunction, Multifunction
from .domains import normalize_rows, row_all
from .errors import ArgumentError, InefficiencyError
from .estimates import SeminormEstimate, delta_method_root
from .exterior import unit_sphere_area
from .forms import lp_norm

__all__ = [
    "SeminormConfig",
    "SweepResult",
    "DEFAULT_THETAS",
    "MIN_ACCEPTANCE",
    "fixed_theta_seminorm",
    "theta_sweep",
    "bbm_constant",
    "near_far_split",
    "epsilon_theta",
    "uniform_bound_check",
    "CSV_COLUMNS",
    "csv_header",
    "csv_row",
    "estimates_to_csv",
]

DEFAULT_THETAS = (0.9, 0.95, 0.975, 0.99, 0.995)
MIN_ACCEPTANCE = 1e-4
VARIANTS = ("full", "ball", "cone", "ball-cone")
# The sampling layout.  Changing either constant changes every seeded stream,
# and the batch F sees sets both time and peak memory.
_STREAMS = 4
_CHUNK = 1 << 15


@dataclass(frozen=True)
class SeminormConfig:
    """Settings for one fixed-theta estimate.

    The degree k is the multifunction's.  R applies to the ball variants, c
    to the cone variants.  stream separates sampling streams that share one
    seed (theta sweeps use the theta index), so sweep points are independent
    yet reproducible.
    """

    p: float = 2.0
    variant: str = "full"
    theta: float = 0.9
    samples: int = 100000
    seed: int = 0
    R: float | None = None
    c: float | None = None
    stream: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ArgumentError("p must be >= 1")
        if not 0.0 < self.theta < 1.0:
            raise ArgumentError("theta must lie in (0, 1)")
        if self.samples < 2:
            raise ArgumentError("need at least 2 samples")
        if self.variant not in VARIANTS:
            raise ArgumentError(f"unknown variant {self.variant!r}")
        if self.variant in ("ball", "ball-cone"):
            if self.R is None or self.R <= 0:
                raise ArgumentError("ball variants need R > 0")
        if self.variant in ("cone", "ball-cone"):
            if self.c is None or self.c <= 0:
                raise ArgumentError("cone variants need c > 0")


def bbm_constant(p, k):
    """The limit constant K(p, k) = p^{-k/p} / k!."""
    if p < 1 or k < 0:
        raise ArgumentError("need p >= 1 and k >= 0")
    return p ** (-k / p) / math.factorial(k)


def epsilon_theta(theta):
    """The near/far split scale e^{-1/sqrt(1-theta)}."""
    if not 0.0 < theta < 1.0:
        raise ArgumentError("theta must lie in (0, 1)")
    return math.exp(-1.0 / math.sqrt(1.0 - theta))


class _Accumulator:
    """Streaming sum / sum-of-squares over streams for one weight channel."""

    __slots__ = ("sw", "sw2", "n")

    def __init__(self):
        self.sw = 0.0
        self.sw2 = 0.0
        self.n = 0

    def add(self, weights):
        self.sw += float(np.sum(weights))
        self.sw2 += float(np.sum(weights * weights))
        self.n += weights.size

    def mean_and_stderr(self):
        mean = self.sw / self.n
        var = max(self.sw2 - self.n * mean * mean, 0.0) / max(self.n - 1, 1)
        return mean, math.sqrt(var / self.n)


def _resolve(F, domain, cfg):
    if F.dimension != domain.dimension:
        raise ArgumentError("multifunction and domain dimensions differ")
    R = domain.diameter() if cfg.variant == "full" else cfg.R
    return F.degree, R


def _config_echo(cfg, k, R):
    return {
        "variant": cfg.variant,
        "p": cfg.p,
        "k": k,
        "theta": cfg.theta,
        "R": R,
        "c": cfg.c,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "stream": cfg.stream,
    }


def _finalize(acc, p, echo, acceptance):
    power, power_stderr = acc.mean_and_stderr()
    value, stderr = delta_method_root(power, power_stderr, p)
    return SeminormEstimate(
        value=value,
        stderr=stderr,
        power_value=max(power, 0.0),
        power_stderr=power_stderr,
        samples=acc.n,
        acceptance_ratio=acceptance,
        config=dict(echo),
    )


def _estimate(F, domain, cfg, split_radius=None):
    """Core sampler.  With split_radius, weights are routed into a near
    channel (all radii below the split) and a far channel; otherwise only
    the total channel is filled."""
    k, R = _resolve(F, domain, cfg)
    n = domain.dimension
    p = cfg.p
    a = p * (1.0 - cfg.theta)
    sphere_area = unit_sphere_area(n)
    volume = domain.volume()
    cone = cfg.variant in ("cone", "ball-cone")
    capped = cfg.variant in ("full", "ball", "ball-cone")

    channels = [_Accumulator()]
    if split_radius is not None:
        channels.append(_Accumulator())
    accepted = 0
    total = 0
    nonfinite = 0

    base = cfg.samples // _STREAMS
    counts = [
        base + (1 if s < cfg.samples % _STREAMS else 0)
        for s in range(_STREAMS)
    ]
    for stream, count in enumerate(counts):
        if count == 0:
            continue
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(cfg.stream, stream))
        )
        done = 0
        while done < count:
            m = min(_CHUNK, count - done)
            done += m
            total += m
            x0 = domain.sample_uniform(m, seed=rng)
            vs = normalize_rows(rng.standard_normal((m, k, n)))
            u = rng.random((m, k))
            if cone and k:
                reach = cfg.c * domain.dist_to_boundary_batch(x0)
                r_eff = np.minimum(reach, R) if capped else reach
            else:  # with k = 0 no radius is drawn, and r_eff**0 = 1 for any R
                r_eff = np.full(m, R if k else 1.0)
            rs = u ** (1.0 / a)
            # x_i = x0 + r_i v_i one coordinate column at a time: the same
            # products and sums as x0[:, None, :] + rs[..., None] * vs
            pts = np.empty((m, k, n))
            for i in range(k):
                rs[:, i] *= r_eff
                for c in range(n):
                    np.multiply(rs[:, i], vs[:, i, c], out=pts[:, i, c])
                    pts[:, i, c] += x0[:, c]
            inside = row_all(domain.contains_batch(pts.reshape(-1, n)).reshape(m, k))
            # F sees only the accepted tuples; a rejected one weighs 0
            keep = np.flatnonzero(inside)
            accepted += len(keep)
            g = np.zeros(m)
            g[keep] = F.evaluate_scaled_batch(
                x0.take(keep, axis=0), vs.take(keep, axis=0), rs.take(keep, axis=0)
            )
            w = volume * (sphere_area / p) ** k * r_eff**(a * k) * np.abs(g) ** p
            nonfinite += np.count_nonzero(~np.isfinite(w))
            if split_radius is None:
                channels[0].add(w)
            else:
                near = row_all(rs <= split_radius)
                w_near = np.where(near, w, 0.0)
                channels[0].add(w_near)
                channels[1].add(w - w_near)

    if nonfinite:  # F gave a non-finite value, or |g|^p overflowed
        raise FloatingPointError(
            f"{nonfinite} of {total} weights are not finite at theta={cfg.theta}"
        )
    acceptance = accepted / total
    echo = _config_echo(cfg, k, R)
    if acceptance < MIN_ACCEPTANCE:
        raise InefficiencyError(
            f"indicator acceptance {acceptance:.2e} below {MIN_ACCEPTANCE:g} "
            f"for variant {cfg.variant!r} at theta={cfg.theta}",
            acceptance_ratio=acceptance,
            samples=total,
        )
    return [_finalize(acc, p, echo, acceptance) for acc in channels]


def fixed_theta_seminorm(F: Multifunction, domain, cfg: SeminormConfig):
    """The importance-sampled fixed-theta seminorm of F over the domain.

    Returns a SeminormEstimate; the p-th power mean is the unbiased
    quantity, the value is its p-th root with a delta-method error.  F is
    evaluated only on the tuples whose points all lie in the domain; the
    others weigh 0.  A non-finite weight, from a non-finite value of F or
    an overflowing |F|^p, raises FloatingPointError.
    """
    return _estimate(F, domain, cfg)[0]


def near_far_split(F: Multifunction, domain, cfg: SeminormConfig):
    """(near, far) estimates split at radius R * epsilon_theta.

    One sampling pass feeds both: a sample is near when every radius is
    below the split, far otherwise, so near + far equals the ball-variant
    estimate sample by sample.
    """
    if cfg.variant != "ball":
        raise ArgumentError("near_far_split needs the ball variant")
    split = cfg.R * epsilon_theta(cfg.theta)
    near, far = _estimate(F, domain, cfg, split_radius=split)
    for est in (near, far):
        est.config["split_radius"] = split
    near.config["part"] = "near"
    far.config["part"] = "far"
    return near, far


@dataclass(frozen=True)
class SweepResult:
    """Estimates along a theta grid plus the extrapolated limit.

    Extrapolation happens on the p-th power scale with the two-parameter
    model a + b sqrt(1-theta) over the last (up to four) grid points;
    extrapolated_power is a, its statistical error comes from the weighted
    fit covariance, and fit_residual is the weighted RMS misfit kept as a
    systematic term.  divergent reports growth across the last three
    thetas beyond combined error bars; no extrapolation is offered then.
    """

    thetas: tuple
    estimates: tuple
    p: float
    extrapolated_power: float | None
    extrapolated_power_stderr: float | None
    fit_residual: float | None
    divergent: bool
    diagnostics: dict = field(default_factory=dict)

    @property
    def powers(self):
        return np.array([e.power_value for e in self.estimates])

    @property
    def power_errors(self):
        return np.array([e.power_stderr for e in self.estimates])

    @property
    def extrapolated_value(self):
        if self.extrapolated_power is None:
            return None
        return max(self.extrapolated_power, 0.0) ** (1.0 / self.p)


def _weighted_line_fit(x, y, sigma):
    """Weighted least squares for y = a + b x; returns a, sigma_a, rms."""
    sigma = np.where(sigma > 0, sigma, np.max(sigma) if np.max(sigma) > 0 else 1.0)
    w = 1.0 / sigma**2
    X = np.stack([np.ones_like(x), x], axis=1)
    A = X.T @ (w[:, np.newaxis] * X)
    b = X.T @ (w * y)
    cov = np.linalg.inv(A)
    coef = cov @ b
    resid = y - X @ coef
    rms = math.sqrt(float(np.mean(resid**2)))
    return float(coef[0]), math.sqrt(max(float(cov[0, 0]), 0.0)), rms


def _detect_divergence(thetas, powers, errors):
    """Growth across the last three thetas beyond combined error bars,
    accelerating in 1/(1-theta)."""
    y = powers[-3:]
    s = errors[-3:]
    g = 1.0 / (1.0 - np.asarray(thetas[-3:]))
    inc1 = y[1] - y[0] > s[1] + s[0]
    inc2 = y[2] - y[1] > s[2] + s[1]
    if not (inc1 and inc2):
        return False
    slope1 = (y[1] - y[0]) / (g[1] - g[0])
    slope2 = (y[2] - y[1]) / (g[2] - g[1])
    return slope2 >= slope1


def theta_sweep(F: Multifunction, domain, cfg: SeminormConfig, thetas=None):
    """Fixed-theta estimates along a grid with a theta -> 1 extrapolation.

    Each grid point uses an independent sampling stream of the same seed.
    """
    thetas = tuple(DEFAULT_THETAS if thetas is None else thetas)
    if len(thetas) < 3:
        raise ArgumentError("theta sweep needs at least 3 thetas")
    if any(not 0.0 < t < 1.0 for t in thetas):
        raise ArgumentError("thetas must lie in (0, 1)")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ArgumentError("thetas must increase strictly")
    estimates = tuple(
        fixed_theta_seminorm(F, domain, replace(cfg, theta=t, stream=j))
        for j, t in enumerate(thetas)
    )
    powers = np.array([e.power_value for e in estimates])
    errors = np.array([e.power_stderr for e in estimates])
    positive = powers > 0
    diagnostics = {
        "monotone_increasing": bool(np.all(np.diff(powers) >= 0)),
        "monotone_decreasing": bool(np.all(np.diff(powers) <= 0)),
        "heavy_tail": bool(
            np.any(errors[positive] > 0.5 * powers[positive])
        ) if positive.any() else False,
    }
    divergent = bool(_detect_divergence(thetas, powers, errors))
    a = sa = rms = None
    if not divergent:
        window = min(4, len(thetas))
        diagnostics["fit_window"] = window
        xs = np.sqrt(1.0 - np.asarray(thetas[-window:]))
        ys = powers[-window:]
        ss = errors[-window:]
        if np.all(ys == 0.0):
            a, sa, rms = 0.0, 0.0, 0.0
        else:
            a, sa, rms = _weighted_line_fit(xs, ys, ss)
    return SweepResult(
        thetas=thetas,
        estimates=estimates,
        p=cfg.p,
        extrapolated_power=a,
        extrapolated_power_stderr=sa,
        fit_residual=rms,
        divergent=divergent,
        diagnostics=diagnostics,
    )


def uniform_bound_check(omega, domain, R, theta, cfg=None):
    """(lhs, rhs) for the a-priori bound on |I_omega| at fixed theta.

    lhs estimates the ball-variant seminorm of I_omega; rhs is
    C R^{k(1-theta)} ||omega||_{L^p} with the explicit constant
    C = (m_k(Delta_k) (H^{n-1}(S^{n-1}))^k / p^k)^{1/p}.
    """
    cfg = cfg or SeminormConfig(variant="ball", R=R, theta=theta)
    if cfg.variant != "ball" or cfg.R != R or cfg.theta != theta:
        cfg = replace(cfg, variant="ball", R=R, theta=theta)
    F = IntegrationMultifunction(omega)
    lhs = fixed_theta_seminorm(F, domain, cfg)
    k, p = omega.degree, cfg.p
    C = (
        (1.0 / math.factorial(k))
        * unit_sphere_area(domain.dimension) ** k
        / p**k
    ) ** (1.0 / p)
    norm = lp_norm(omega, domain, p, seed=cfg.seed)
    rhs = norm.scaled(C * R ** (k * (1.0 - theta)))
    rhs.config["kind"] = "uniform-bound-rhs"
    return lhs, rhs


# -- CSV serialization --------------------------------------------------------

CSV_COLUMNS = (
    "variant",
    "p",
    "k",
    "theta",
    "R",
    "c",
    "samples",
    "seed",
    "value",
    "stderr",
    "acceptance_ratio",
)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_header():
    return ",".join(CSV_COLUMNS)


def csv_row(est: SeminormEstimate):
    cfg = est.config
    cells = [
        cfg.get("variant", ""),
        _csv_cell(float(cfg["p"])) if "p" in cfg else "",
        _csv_cell(cfg.get("k")),
        _csv_cell(float(cfg["theta"])) if "theta" in cfg else "",
        _csv_cell(float(cfg["R"])) if cfg.get("R") is not None else "",
        _csv_cell(float(cfg["c"])) if cfg.get("c") is not None else "",
        _csv_cell(cfg.get("samples")),
        _csv_cell(cfg.get("seed")),
        _csv_cell(float(est.value)),
        _csv_cell(float(est.stderr)),
        _csv_cell(float(est.acceptance_ratio)),
    ]
    return ",".join(cells)


def estimates_to_csv(estimates):
    lines = [csv_header()]
    lines.extend(csv_row(e) for e in estimates)
    return "\n".join(lines) + "\n"
