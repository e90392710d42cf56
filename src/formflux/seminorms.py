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

The layout is fixed: the samples are split over _STREAMS independently
seeded streams, each drawn _CHUNK tuples at a time (_blocks), so the result
is a deterministic function of the config and its seed.  Consecutive blocks
that fit in one tile together are packed (_packs), and a larger block is a
pack of its own.  Each pack passes through four stages: _draw takes each
block's base points, directions and radial uniforms from its stream, into
the block's own rows of the pack; _tuples places the points and tests them
against the domain; _weights evaluates F on the accepted tuples and weighs
every tuple; and _estimate adds each block's weights and their squares,
summed over the block's own rows, in block order, to running sums, one row
per channel, which become the estimates at the end.  So an estimate of a
few hundred samples hands F one batch, not one per block.

Every stage writes into a workspace (_Workspace), one per thread, whose
arrays grow to the largest pack seen and serve every later pack and
estimate; an F that starts an estimate of its own gets a fresh one.  A pack
holds at most max(_CHUNK, tile) rows, the most a block or a tile holds.
_draw fills the pack's arrays from the streams, with the same calls in the
same order as drawing fresh arrays block by block, and normalizes the
directions in place.  _tuples and _weights then run over tiles of the pack
(_tile_rows: 4096 tuples for k = n = 2; a pack of small blocks is one
tile), so no temporary outgrows a (rows, k, n) array of a tile, 128 KiB,
and none is block-sized: a block-sized temporary is above glibc's mmap and
trim thresholds and is faulted in anew for every block.  Each tile writes
its radii, reach, g and weights into the workspace, and F gets read-only
views.  Every row is computed on its own, F's included
(evaluate_scaled_batch gives a row the same bits in any batch), and each
block's sums are taken over its own rows, so the estimate depends neither
on the tiles nor on the packs.
"""

from __future__ import annotations

import math
import numbers
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .alexander_spanier import IntegrationMultifunction, Multifunction
from .domains import normalize_rows, row_all
from .errors import ArgumentError, InefficiencyError
from .estimates import SeminormEstimate, check_exponent, delta_method_root
from .exterior import unit_sphere_area
from .forms import _NODE_BLOCK, lp_norm

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

    The degree k is the multifunction's.  p is finite and >= 1.  R applies
    to the ball variants, c to the cone variants, each finite and > 0;
    either given to a variant that ignores it is an error.  stream
    separates sampling streams that share one seed (theta sweeps use the
    theta index), so sweep points are independent yet reproducible.
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
        for name, least in (("samples", 2), ("seed", 0), ("stream", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ArgumentError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ArgumentError(f"{name} must be >= {least}, got {value}")
        check_exponent(self.p)
        if not 0.0 < self.theta < 1.0:
            raise ArgumentError("theta must lie in (0, 1)")
        if self.variant not in VARIANTS:
            raise ArgumentError(f"unknown variant {self.variant!r}")
        for name, family in (("R", "ball"), ("c", "cone")):
            value = getattr(self, name)
            if family not in self.variant:
                if value is not None:
                    raise ArgumentError(f"{name} applies only to the {family} "
                                        f"variants, not {self.variant!r}")
            elif value is None or not 0 < value < math.inf:
                raise ArgumentError(f"{family} variants need a finite {name} > 0, "
                                    f"got {value!r}")


def bbm_constant(p, k):
    """The limit constant K(p, k) = p^{-k/p} / k!."""
    check_exponent(p)
    if k < 0:
        raise ArgumentError(f"k must be >= 0, got {k}")
    return p ** (-k / p) / math.factorial(k)


def epsilon_theta(theta):
    """The near/far split scale e^{-1/sqrt(1-theta)}."""
    if not 0.0 < theta < 1.0:
        raise ArgumentError("theta must lie in (0, 1)")
    return math.exp(-1.0 / math.sqrt(1.0 - theta))


def _blocks(cfg):
    """(rng, m) per block: the samples split over _STREAMS streams seeded by
    (seed, stream, s), each drawn _CHUNK tuples at a time."""
    for s in range(_STREAMS):
        count = cfg.samples // _STREAMS + (s < cfg.samples % _STREAMS)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.seed, spawn_key=(cfg.stream, s))
        )
        for done in range(0, count, _CHUNK):
            yield rng, min(_CHUNK, count - done)


def _packs(cfg, rows):
    """The blocks of _blocks in packs: consecutive blocks that fit in rows
    tuples together, and a larger block alone.  A pack is a list of
    (rng, slice of the pack's rows) per block."""
    pack = []
    for rng, m in _blocks(cfg):
        lo = pack[-1][1].stop if pack else 0
        if pack and lo + m > rows:
            yield pack
            pack, lo = [], 0
        pack.append((rng, slice(lo, lo + m)))
    if pack:
        yield pack


class _Workspace:
    """The arrays of an estimate's packs and tiles, by name: each is a
    view of one flat buffer that grows to the largest request and is
    reused by every later one.  The last view of each name is kept, since
    packs and tiles mostly repeat their shapes."""

    def __init__(self):
        self.busy = False
        self.buffers = {}
        self.views = {}

    def array(self, name, shape):
        view = self.views.get(name)
        if view is None or view.shape != shape:
            size = math.prod(shape)
            buf = self.buffers.get(name)
            if buf is None or buf.size < size:
                buf = self.buffers[name] = np.empty(size)
            view = self.views[name] = buf[:size].reshape(shape)
        return view


_local = threading.local()


@contextmanager
def _workspace():
    """This thread's workspace, or a fresh one while it is in use (an F
    that runs an estimate of its own)."""
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = _local.workspace = _Workspace()
    elif ws.busy:
        ws = _Workspace()
    ws.busy = True
    try:
        yield ws
    finally:
        ws.busy = False


def _tile_rows(k, n):
    """Tuples per tile: a tile's largest arrays, (rows, k, n) doubles such
    as its points, hold at most 2 * forms._NODE_BLOCK values, 128 KiB."""
    return max(1, 2 * _NODE_BLOCK // (max(1, k) * n))


def _tiles(m, k, n):
    """The slices of consecutive tiles that cover m rows."""
    step = _tile_rows(k, n)
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _read_only(arr):
    """A read-only view of arr."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _draw(domain, pack, k, ws, tiles):
    """(x0, vs, u) in the workspace, block after block in the pack's rows:
    from each block's stream its base points uniform in the domain, then k
    unit directions and k radial uniforms per base point.  The directions
    are normalized tile by tile."""
    n, m = domain.dimension, pack[-1][1].stop
    x0, vs, u = (ws.array("x0", (m, n)), ws.array("vs", (m, k, n)),
                 ws.array("u", (m, k)))
    for rng, block in pack:
        domain.sample_uniform(block.stop - block.start, seed=rng, out=x0[block])
        rng.standard_normal(out=vs[block])
        rng.random(out=u[block])
    for tile in tiles:
        normalize_rows(vs[tile])
    return x0, vs, u


def _tuples(domain, cfg, R, x0, vs, u, ws):
    """(rs, r_eff, keep) for a tile: the radii r_i = r_eff U_i^{1/(p(1-theta))},
    written over u, the reach r_eff of each tuple, and the indices of the
    tuples whose points x_i = x0 + r_i v_i all lie in the domain."""
    m, k, n = vs.shape
    r_eff = ws.array("r_eff", (m,))
    if cfg.variant in ("cone", "ball-cone") and k:
        np.multiply(cfg.c, domain.dist_to_boundary_batch(x0), out=r_eff)
        if cfg.variant == "ball-cone":
            np.minimum(r_eff, R, out=r_eff)
    else:  # with k = 0 no radius is drawn, and r_eff**0 = 1 for any R
        r_eff.fill(R if k else 1.0)
    rs = u
    rs **= 1.0 / (cfg.p * (1.0 - cfg.theta))  # numpy's u ** e, in place
    # one coordinate column at a time: the same products and sums as
    # x0[:, None, :] + rs[..., None] * vs
    pts = ws.array("pts", (m, k, n))
    for i in range(k):
        rs[:, i] *= r_eff
        for c in range(n):
            np.multiply(rs[:, i], vs[:, i, c], out=pts[:, i, c])
            pts[:, i, c] += x0[:, c]
    inside = row_all(domain.contains_batch(pts.reshape(-1, n)).reshape(m, k))
    return rs, r_eff, np.flatnonzero(inside)


def _weights(F, cfg, scale, x0, vs, rs, r_eff, keep, ws, out):
    """w = scale r_eff^{p(1-theta) k} |g|^p into out for a tile, where
    g = F / prod r_i on the kept tuples, which alone F sees, and g = 0 on
    the others.  F gets read-only views: of the tile itself when every
    tuple is kept, else of its kept rows gathered into the workspace.
    Overflow and 0 * inf are left silent: _estimate raises on every
    non-finite weight."""
    m = len(x0)
    g = ws.array("g", (m,))
    args = (x0, vs, rs)
    if len(keep) == m:
        g[:] = F.evaluate_scaled_batch(*map(_read_only, args))
    else:
        kept = [_read_only(arr.take(keep, axis=0, mode="clip",
                                    out=ws.array(name, arr.shape)[:len(keep)]))
                for name, arr in zip(("kept_x0", "kept_vs", "kept_rs"), args)]
        g.fill(0.0)
        g[keep] = F.evaluate_scaled_batch(*kept)
    a = cfg.p * (1.0 - cfg.theta)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(scale * r_eff**(a * rs.shape[1]), np.abs(g) ** cfg.p, out=out)


def _estimate(F, domain, cfg, split_radius=None):
    """One estimate per channel: the total, or with split_radius the near
    tuples (every radius at most the split) and the far ones."""
    if F.dimension != domain.dimension:
        raise ArgumentError("multifunction and domain dimensions differ")
    k, n = F.degree, domain.dimension
    R = domain.diameter() if cfg.variant == "full" else cfg.R
    scale = domain.volume() * (unit_sphere_area(n) / cfg.p) ** k
    channels = 1 if split_radius is None else 2
    sums = np.zeros((channels, 2))  # sum w, sum w^2
    total = accepted = nonfinite = 0
    with _workspace() as ws:
        for pack in _packs(cfg, _tile_rows(k, n)):
            m = pack[-1][1].stop
            tiles = _tiles(m, k, n)
            x0, vs, u = _draw(domain, pack, k, ws, tiles)
            w = ws.array("w", (channels, m))
            for tile in tiles:
                rs, r_eff, keep = _tuples(domain, cfg, R, x0[tile], vs[tile],
                                          u[tile], ws)
                _weights(F, cfg, scale, x0[tile], vs[tile], rs, r_eff, keep, ws,
                         out=w[0, tile])
                accepted += len(keep)
                nonfinite += np.count_nonzero(~np.isfinite(w[0, tile]))
                if split_radius is not None:  # near into row 0, far into row 1
                    near = np.where(row_all(rs <= split_radius), w[0, tile], 0.0)
                    np.subtract(w[0, tile], near, out=w[1, tile])
                    w[0, tile] = near
            total += m
            w2 = np.multiply(w, w, out=ws.array("w2", w.shape))
            for _, block in pack:  # each block's own sums, in block order
                sums += np.stack((np.sum(w[:, block], axis=-1),
                                  np.sum(w2[:, block], axis=-1)), axis=-1)

    if nonfinite:  # F gave a non-finite value, or |g|^p overflowed
        raise FloatingPointError(
            f"{nonfinite} of {total} weights are not finite at theta={cfg.theta}"
        )
    acceptance = accepted / total
    if acceptance < MIN_ACCEPTANCE:
        raise InefficiencyError(
            f"indicator acceptance {acceptance:.2e} below {MIN_ACCEPTANCE:g} "
            f"for variant {cfg.variant!r} at theta={cfg.theta}",
            acceptance_ratio=acceptance,
            samples=total,
        )
    config = {**asdict(cfg), "k": k, "R": R}
    estimates = []
    for sw, sw2 in sums.tolist():  # Python floats, as the CSV and README show
        power = sw / total
        var = max(sw2 - total * power * power, 0.0) / max(total - 1, 1)
        power_stderr = math.sqrt(var / total)
        value, stderr = delta_method_root(power, power_stderr, cfg.p)
        estimates.append(SeminormEstimate(
            value=value, stderr=stderr, power_value=max(power, 0.0),
            power_stderr=power_stderr, samples=total,
            acceptance_ratio=acceptance, config=dict(config),
        ))
    return estimates


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
    """Weighted least squares for y = a + b x; returns a, sigma_a, rms, or
    None when the normal matrix is singular at working precision
    (cond * eps >= 1), as it is for x values a few ulps apart."""
    sigma = np.where(sigma > 0, sigma, np.max(sigma) if np.max(sigma) > 0 else 1.0)
    w = 1.0 / sigma**2
    X = np.stack([np.ones_like(x), x], axis=1)
    A = X.T @ (w[:, np.newaxis] * X)
    if np.linalg.cond(A) * np.finfo(float).eps >= 1.0:
        return None
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
        fit = (0.0, 0.0, 0.0) if np.all(ys == 0.0) else _weighted_line_fit(xs, ys, ss)
        if fit is None:
            raise ArgumentError(
                f"the fit window, thetas {list(thetas[-window:])}, is too narrow "
                "to resolve a + b sqrt(1 - theta) at double precision"
            )
        a, sa, rms = fit
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
    cfg = replace(cfg or SeminormConfig(), variant="ball", R=R, theta=theta)
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
# cells written as repr(float(v)), so an integer p = 2 reads 2.0; others as str(v)
_FLOAT_COLUMNS = {"p", "theta", "R", "c", "value", "stderr", "acceptance_ratio"}


def _csv_cell(name, value):
    if value is None:
        return ""
    return repr(float(value)) if name in _FLOAT_COLUMNS else str(value)


def csv_header():
    return ",".join(CSV_COLUMNS)


def csv_row(est: SeminormEstimate):
    """The estimate's CSV line: its config echo, value, stderr and
    acceptance ratio under CSV_COLUMNS, an unset column left empty."""
    cells = {**est.config, "value": est.value, "stderr": est.stderr,
             "acceptance_ratio": est.acceptance_ratio}
    return ",".join(_csv_cell(name, cells.get(name)) for name in CSV_COLUMNS)


def estimates_to_csv(estimates):
    lines = [csv_header()]
    lines.extend(csv_row(e) for e in estimates)
    return "\n".join(lines) + "\n"
