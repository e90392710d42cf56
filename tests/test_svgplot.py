import contextlib
import hashlib
import signal

import pytest

from formflux.estimates import SeminormEstimate
from formflux.seminorms import SweepResult
from formflux.svgplot import nice_ticks, sweep_svg

SERIES = 'stroke="#1f6f8b" stroke-width="1"/>'


def sweep(thetas, powers, errors, p=2.0, limit=None):
    return SweepResult(
        thetas=thetas,
        estimates=tuple(
            SeminormEstimate(value=v ** (1 / p), stderr=e, power_value=v,
                             power_stderr=e, samples=1000, acceptance_ratio=1.0)
            for v, e in zip(powers, errors)
        ),
        p=p, extrapolated_power=limit, extrapolated_power_stderr=None,
        fit_residual=None, divergent=limit is None,
    )


def small_sweep(limit=1.5):
    return sweep((0.9, 0.95, 0.99), (1.0, 1.2, 1.3), (0.1, 0.05, 0.02),
                 limit=limit)


def test_render_is_wellformed_svg():
    text = sweep_svg(small_sweep())
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<svg ") == 1
    assert "polyline" in text
    assert text.count("<circle") == 3


def test_render_includes_labels_and_hline():
    text = sweep_svg(small_sweep())
    assert "seminorm power vs theta" in text
    assert ">theta<" in text
    assert ">value^2<" in text
    assert "extrapolated limit" in text
    assert "stroke-dasharray" in text


def test_dashed_line_only_with_a_limit():
    text = sweep_svg(small_sweep(limit=None))
    assert "stroke-dasharray" not in text
    assert "extrapolated limit" not in text


def test_error_bars_draw_three_segments_per_point():
    assert sweep_svg(small_sweep()).count(SERIES) == 9


def test_render_is_deterministic():
    assert sweep_svg(small_sweep()) == sweep_svg(small_sweep())


def test_constant_series_still_renders():
    text = sweep_svg(sweep((0.9, 0.95, 0.99), (5.0,) * 3, (0.0,) * 3))
    assert "polyline" in text
    assert "nan" not in text


GOLDEN = {
    "limit": (
        sweep((0.9, 0.95, 0.975, 0.99, 0.995), (1.29, 1.41, 1.49, 1.52, 1.55),
              (0.009, 0.0085, 0.008, 0.008, 0.0079), limit=1.61),
        "8c9ee12b927b0374f27e746255d94d9fc79fa5531e73dd176b0626416895c7d3",
    ),
    "no-limit": (
        sweep((0.5, 0.9, 0.99), (0.2, 0.8, 3.1), (0.01, 0.05, 0.4), p=1.5),
        "e7128c019abea059aae0ab396307027d9022ece83d5bd49e05fa959bb9378a6a",
    ),
    "constant": (
        sweep((0.9, 0.95, 0.99), (5.0,) * 3, (0.0,) * 3, limit=5.0),
        "f7e44ec788527727bebb65fd37fd2d936cbada4160b82487c89951b00531663f",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_sweep_svg_keeps_its_bytes(name):
    """Digests of the chart as the multi-series SvgPlot builder drew it."""
    result, digest = GOLDEN[name]
    assert hashlib.sha256(sweep_svg(result).encode()).hexdigest() == digest


def test_nice_ticks_cover_range_with_round_steps():
    ticks = nice_ticks(0.0, 1.0)
    assert ticks[0] == 0.0
    assert ticks[-1] == pytest.approx(1.0)
    assert all(b > a for a, b in zip(ticks, ticks[1:]))
    assert 2 <= len(ticks) <= 7


def test_nice_ticks_handle_tiny_spans():
    ticks = nice_ticks(0.99, 0.995)
    assert min(ticks) >= 0.989
    assert max(ticks) <= 0.9951
    assert len(ticks) >= 2


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after `seconds`: a tick loop that
    never ends fails the test instead of filling memory."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


ULP_APART = (0.9, 0.9000000000000001, 0.9000000000000002)  # adjacent floats


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_nice_ticks_stop_when_the_step_is_below_the_float_spacing():
    """A step smaller than half the spacing of floats near 0.9 leaves t
    where it is; the ticks stop there."""
    with deadline(2):
        ticks = nice_ticks(ULP_APART[0], ULP_APART[-1])
    assert ticks and all(ULP_APART[0] <= t <= ULP_APART[-1] for t in ticks)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_thetas_an_ulp_apart_still_draw():
    with deadline(2):
        text = sweep_svg(sweep(ULP_APART, (1.4, 1.5, 1.3), (0.1,) * 3))
    assert text.endswith("</svg>\n")
    assert 'y="374" text-anchor="middle"' in text  # an x tick label
