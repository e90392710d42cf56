import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from formflux.cli import main
from formflux.domains import AxisBox, ConvexPolytope, SetDifference
from formflux.experiments import default_spec
from formflux.forms import FormField, form_to_json
from formflux.seminorms import csv_header


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    forms = {
        "dx1": FormField.constant_form(2, {(1,): 1.0}),
        "x1-scalar": FormField.from_polynomials(2, 0, {(): {(1, 0): 1.0}}),
        "x1dx2-left": FormField.from_polynomials(
            2, 1, {(2,): {(1, 0): 1.0}}
        ).with_support(AxisBox([0.0, 0.0], [0.5, 1.0])),
    }
    for name, form in forms.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(form_to_json(form)))
        paths[name] = str(p)
    square = tmp_path / "unit-square.json"
    square.write_text(json.dumps(AxisBox([0.0, 0.0], [1.0, 1.0]).to_json()))
    paths["square"] = str(square)
    paths["dir"] = str(tmp_path)
    return paths


def seminorm_args(fixtures, *extra):
    return [
        "seminorm", "--form", fixtures["dx1"], "--domain", fixtures["square"],
        "--samples", "4000", *extra,
    ]


def test_seminorm_emits_csv_row(fixtures, capsys):
    assert main(seminorm_args(fixtures, "--theta", "0.99")) == 0
    out = capsys.readouterr()
    lines = out.out.strip().splitlines()
    assert lines[0] == csv_header()
    assert len(lines) == 2
    assert lines[1].startswith("full,2.0,1,0.99,")
    assert "theta=0.99" in out.err


def test_seminorm_theta_flag_repeats(fixtures, capsys):
    code = main(seminorm_args(fixtures, "--theta", "0.9", "--theta", "0.95"))
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3


def test_seminorm_writes_csv_file(fixtures, capsys, tmp_path):
    out_dir = tmp_path / "results"
    code = main(seminorm_args(fixtures, "--theta", "0.9", "--out",
                              str(out_dir)))
    assert code == 0
    stdout = capsys.readouterr().out
    assert (out_dir / "seminorm.csv").read_text(encoding="utf-8") == stdout


def test_seminorm_rejects_zero_samples(fixtures, capsys):
    assert main(seminorm_args(fixtures)[:-1] + ["0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_seminorm_rejects_missing_file(fixtures, capsys):
    args = seminorm_args(fixtures)
    args[2] = str(fixtures["dir"]) + "/nope.json"
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_seminorm_rejects_bad_degree(fixtures, capsys):
    assert main(seminorm_args(fixtures, "--k", "3")) == 2
    assert "--k must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["seminorm", "sweep"])
def test_removed_shards_flag_is_usage_error(fixtures, capsys, command):
    args = [command] + seminorm_args(fixtures, "--shards", "4")[1:]
    assert main(args) == 2
    assert "--shards" in capsys.readouterr().err


def test_seminorm_inefficient_config_exits_3(fixtures, capsys):
    args = seminorm_args(
        fixtures, "--theta", "0.5", "--variant", "ball", "--R", "100000"
    )
    assert main(args) == 3
    assert "error:" in capsys.readouterr().err


def test_seminorm_overflowing_weights_exit_2(fixtures, capsys):
    """At p = 1e6 every weight |g|^p overflows: a configuration the
    estimator cannot represent, reported on one error line without numpy
    warnings, not an assertion failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(seminorm_args(fixtures, "--p", "1e6")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 4000 of 4000 weights are not finite at theta=0.9\n"
    )


def test_sweep_reports_extrapolation_and_plot(fixtures, capsys, tmp_path):
    out_dir = tmp_path / "sweep-out"
    code = main([
        "sweep", "--form", fixtures["x1-scalar"], "--domain",
        fixtures["square"], "--k", "1", "--samples", "4000",
        "--out", str(out_dir),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 6
    assert "extrapolated power" in captured.err
    svg = (out_dir / "sweep.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    assert "extrapolated limit" in svg


def test_sweep_no_plot_skips_svg(fixtures, capsys, tmp_path):
    out_dir = tmp_path / "noplot"
    code = main([
        "sweep", "--form", fixtures["x1-scalar"], "--domain",
        fixtures["square"], "--k", "1", "--samples", "4000",
        "--no-plot", "--out", str(out_dir),
    ])
    assert code == 0
    capsys.readouterr()
    assert (out_dir / "sweep.csv").exists()
    assert not (out_dir / "sweep.svg").exists()


def test_sweep_flags_divergent_and_exits_zero(fixtures, capsys):
    code = main([
        "sweep", "--form", fixtures["x1dx2-left"], "--domain",
        fixtures["square"], "--k", "2", "--samples", "4000", "--seed", "0",
        "--theta", "0.3", "--theta", "0.4", "--theta", "0.5", "--no-plot",
    ])
    assert code == 0
    assert "DIVERGENT" in capsys.readouterr().err


def test_sweep_csv_is_byte_identical_across_runs(fixtures, capsys):
    args = [
        "sweep", "--form", fixtures["dx1"], "--domain", fixtures["square"],
        "--samples", "4000", "--no-plot", "--seed", "11",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(first.strip().splitlines()) == 6


def test_sweep_draws_the_svg_only_for_out(fixtures, capsys, monkeypatch):
    def refuse(sweep):
        raise AssertionError("sweep_svg called without --out")

    monkeypatch.setattr("formflux.cli.sweep_svg", refuse)
    args = ["sweep", "--form", fixtures["dx1"], "--domain", fixtures["square"],
            "--samples", "400"]
    assert main(args) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_cone_seminorm_on_a_polytope_hole_is_reproducible(fixtures, capsys, n):
    hole = ConvexPolytope(np.vstack([np.eye(n), -np.eye(n)]), [0.6] * n + [-0.4] * n)
    domain = SetDifference(AxisBox([0.0] * n, [1.0] * n), hole)
    domain_path = Path(fixtures["dir"]) / "holed.json"
    domain_path.write_text(json.dumps(domain.to_json()))
    form_path = Path(fixtures["dir"]) / "dx1-n.json"
    dx1 = FormField.constant_form(n, {(1,): 1.0})
    form_path.write_text(json.dumps(form_to_json(dx1)))
    args = [
        "seminorm", "--form", str(form_path), "--domain", str(domain_path),
        "--variant", "cone", "--c", "0.5", "--theta", "0.9",
        "--samples", "3000", "--seed", "5",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    lines = first.strip().splitlines()
    assert lines[0] == csv_header()
    assert len(lines) == 2 and lines[1].startswith("cone,2.0,1,0.9,")


def test_env_seed_used_when_flag_absent(fixtures, capsys, monkeypatch):
    monkeypatch.setenv("FORMFLUX_SEED", "321")
    assert main(seminorm_args(fixtures, "--theta", "0.9")) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert ",321," in row


def test_seed_flag_beats_env(fixtures, capsys, monkeypatch):
    monkeypatch.setenv("FORMFLUX_SEED", "321")
    assert main(seminorm_args(fixtures, "--theta", "0.9", "--seed", "5")) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert ",5," in row
    assert ",321," not in row


def test_bad_env_seed_is_config_error(fixtures, capsys, monkeypatch):
    monkeypatch.setenv("FORMFLUX_SEED", "soon")
    assert main(seminorm_args(fixtures, "--theta", "0.9")) == 2


def test_verify_suite_passes(capsys):
    assert main(["verify", "dd-zero", "--count", "40", "--seed", "7"]) == 0
    assert "[PASS] dd-zero" in capsys.readouterr().err


def test_verify_stokes_with_count(capsys):
    assert main(["verify", "stokes", "--count", "30", "--seed", "1"]) == 0
    assert "[PASS] stokes-suite" in capsys.readouterr().err


def test_verify_stokes_says_that_it_writes_no_csv(capsys, tmp_path):
    """The Stokes suite reports residuals, not estimate rows: stdout stays
    empty, --out creates nothing, and stderr says so."""
    out = tmp_path / "stokes-csv"
    args = ["verify", "stokes", "--count", "30", "--seed", "1"]
    assert main(args + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"verify-stokes: the report has no estimate rows, so no CSV is "
            f"printed and nothing was written to {out}") in captured.err
    assert not out.exists()
    assert main(args) == 0
    assert captured.err.replace(f" and nothing was written to {out}", "") \
        == capsys.readouterr().err


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "unknown-suite"]) == 2


def test_experiment_named_run(capsys):
    code = main(["experiment", "bbm-square-scalar", "--samples", "8000"])
    assert code == 0
    captured = capsys.readouterr()
    assert "[PASS] bbm-square-scalar" in captured.err
    assert captured.out.startswith(csv_header())


def test_experiment_from_spec_file(tmp_path, capsys):
    spec = {
        "name": "square-scalar-qualitative",
        "form": form_to_json(
            FormField.from_polynomials(2, 0, {(): {(1, 0): 1.0}})
        ),
        "domain": AxisBox([0.0, 0.0], [1.0, 1.0]).to_json(),
        "config": {"p": 2.0, "samples": 3000, "seed": 4},
        "expected": {"kind": "qualitative", "value": None},
        "tolerance": 1.0,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(path)]) == 0
    assert "square-scalar-qualitative" in capsys.readouterr().err


def test_experiment_spec_takes_env_seed(tmp_path, capsys, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(default_spec("bbm-square-x1dx2").to_json()))
    monkeypatch.setenv("FORMFLUX_SEED", "5")
    main(["experiment", "--spec", str(path), "--samples", "2000"])
    rows = capsys.readouterr().out.splitlines()
    seed = csv_header().split(",").index("seed")
    assert len(rows) == 6 and {row.split(",")[seed] for row in rows[1:]} == {"5"}


@pytest.mark.parametrize("key", ["shards", "chunk", "k"])
def test_experiment_spec_with_removed_config_key_is_config_error(tmp_path, capsys,
                                                                 key):
    spec = {
        "name": "x",
        "form": form_to_json(FormField.constant_form(2, {(1,): 1.0})),
        "domain": AxisBox([0.0, 0.0], [1.0, 1.0]).to_json(),
        "config": {"samples": 3000, key: 4},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["experiment", "--spec", str(path)]) == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err


def _spec_with(tmp_path, **changes):
    """argv for experiment --spec on bbm-square-x1dx2 with top-level or
    config keys replaced."""
    doc = default_spec("bbm-square-x1dx2").to_json()
    for key, value in changes.items():
        (doc if key in doc else doc["config"])[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return ["experiment", "--spec", str(path)]


def _with_domain(fixtures, tmp_path, params, shape="axis-box"):
    """seminorm argv whose --domain is the shape with the given params."""
    path = tmp_path / "domain.json"
    path.write_text(json.dumps({"shape": shape, "params": params}))
    args = seminorm_args(fixtures)
    args[args.index("--domain") + 1] = str(path)
    return args


@pytest.mark.parametrize("argv, env, field", [
    pytest.param(lambda f, t: seminorm_args(f, "--seed", "-1"), None, "--seed",
                 id="seminorm-flag"),
    pytest.param(lambda f, t: ["sweep"] + seminorm_args(f, "--seed", "-1")[1:],
                 None, "--seed", id="sweep-flag"),
    pytest.param(lambda f, t: seminorm_args(f), "-1", "FORMFLUX_SEED",
                 id="seminorm-env"),
    pytest.param(lambda f, t: ["verify", "dd-zero", "--seed", "-3"], None,
                 "--seed", id="verify-flag"),
    pytest.param(lambda f, t: ["verify", "dd-zero"], "-3", "FORMFLUX_SEED",
                 id="verify-env"),
    pytest.param(lambda f, t: ["experiment", "bbm-square-scalar", "--seed", "-1"],
                 None, "--seed", id="experiment-flag"),
    pytest.param(lambda f, t: _spec_with(t, samples=400.5), None, "samples",
                 id="spec-float-samples"),
    pytest.param(lambda f, t: _spec_with(t, seed=1.5), None, "seed",
                 id="spec-float-seed"),
    pytest.param(lambda f, t: _spec_with(t, seed=-4), None, "seed",
                 id="spec-negative-seed"),
    pytest.param(lambda f, t: _spec_with(t, thetas=["0.9", "0.95", "0.99"]), None,
                 "thetas", id="spec-string-thetas"),
    pytest.param(lambda f, t: ["verify", "dd-zero", "--count", "0"], None, "count",
                 id="dd-zero-zero-count"),
    pytest.param(lambda f, t: ["verify", "stokes", "--count", "0"], None, "count",
                 id="stokes-zero-count"),
    pytest.param(lambda f, t: ["verify", "stokes", "--count", "-2"], None, "count",
                 id="stokes-negative-count"),
    pytest.param(lambda f, t: ["experiment", "stokes", "--samples", "0"], None,
                 "count", id="experiment-stokes-zero-samples"),
    pytest.param(lambda f, t: ["verify", "stokes", "--count", "5", "--samples", "5"],
                 None, "--count", id="verify-count-and-samples"),
    pytest.param(lambda f, t: seminorm_args(f, "--R", "0.3"), None, "R applies",
                 id="full-with-R"),
    pytest.param(lambda f, t: seminorm_args(f, "--variant", "ball", "--R", "0.5",
                                            "--c", "0.25"), None, "c applies",
                 id="ball-with-c"),
    pytest.param(lambda f, t: seminorm_args(f, "--variant", "cone", "--R", "0.5",
                                            "--c", "0.25"), None, "R applies",
                 id="cone-with-R"),
    pytest.param(lambda f, t: _with_domain(f, t, {"lo": [0, 0], "hi": [1, 1],
                                                  "high": [2, 2]}),
                 None, "'high'", id="domain-unknown-param"),
    pytest.param(lambda f, t: _with_domain(f, t, {"lo": [0, 0]}), None, "'hi'",
                 id="domain-missing-param"),
    pytest.param(lambda f, t: ["sweep"] + seminorm_args(
        f, "--theta", "0.9", "--theta", "0.900000001", "--theta", "0.900000002")[1:],
                 None, "fit window", id="sweep-near-duplicate-thetas"),
    pytest.param(lambda f, t: seminorm_args(f, "--p", "nan"), None, "p must be",
                 id="p-nan"),
    pytest.param(lambda f, t: seminorm_args(f, "--p", "inf"), None, "p must be",
                 id="p-inf"),
    pytest.param(lambda f, t: seminorm_args(f, "--variant", "ball", "--R", "nan"),
                 None, "finite R", id="ball-R-nan"),
    pytest.param(lambda f, t: seminorm_args(f, "--variant", "cone", "--c", "inf"),
                 None, "finite c", id="cone-c-inf"),
    pytest.param(lambda f, t: _spec_with(t, tolerance=math.inf, expected={
        "kind": "closed-form", "value": 1e9}), None, "tolerance",
                 id="spec-inf-tolerance"),
    pytest.param(lambda f, t: _spec_with(t, tolerance=math.nan), None, "tolerance",
                 id="spec-nan-tolerance"),
    pytest.param(lambda f, t: _spec_with(t, expected={
        "kind": "closed-form", "value": math.inf}), None, "expected_value",
                 id="spec-inf-target"),
    pytest.param(lambda f, t: _spec_with(t, expected={
        "kind": "closed-form", "value": math.nan}), None, "expected_value",
                 id="spec-nan-target"),
    pytest.param(lambda f, t: _with_domain(f, t, {"lo": [0, 0], "hi": [1, math.inf]}),
                 None, "box hi", id="box-inf-hi"),
    pytest.param(lambda f, t: _with_domain(f, t, {"center": [0.5, 0.5],
                                                  "radius": math.inf}, "ball"),
                 None, "ball radius", id="ball-inf-radius"),
    pytest.param(lambda f, t: _with_domain(f, t, {"center": [0, math.nan],
                                                  "radius": 1}, "ball"),
                 None, "ball center", id="ball-nan-center"),
    pytest.param(lambda f, t: _with_domain(f, t, {"center": [0, 0], "r_in": 0.5,
                                                  "r_out": math.inf}, "annulus"),
                 None, "annulus r_out", id="annulus-inf-r_out"),
    pytest.param(lambda f, t: _with_domain(f, t, {"center": [[0, 0]], "r_in": 0.5,
                                                  "r_out": 1}, "annulus"),
                 None, "annulus center", id="annulus-matrix-center"),
    pytest.param(lambda f, t: _with_domain(f, t, {
        "lo": [0, 0], "hi": [1, 1], "seg_start": [0.5, 0], "seg_end": [0.5, 0.5],
        "delta": math.nan}, "slit-box"), None, "slit delta", id="slit-nan-delta"),
])
def test_bad_seed_samples_or_thetas_is_config_error(fixtures, tmp_path, capsys,
                                                   monkeypatch, argv, env, field):
    """Exit 2 with the field named, not a traceback from deep in numpy."""
    if env is None:
        monkeypatch.delenv("FORMFLUX_SEED", raising=False)
    else:
        monkeypatch.setenv("FORMFLUX_SEED", env)
    assert main(argv(fixtures, tmp_path)) == 2
    assert field in capsys.readouterr().err


def test_experiment_needs_exactly_one_source(capsys, tmp_path):
    assert main(["experiment"]) == 2
    path = tmp_path / "spec.json"
    path.write_text("{}")
    assert main(["experiment", "bbm-square-scalar", "--spec", str(path)]) == 2


def test_experiment_malformed_spec_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x"')
    assert main(["experiment", "--spec", str(path)]) == 2


@pytest.mark.parametrize("doc", [{"name": "x"}, [], {"form": 3, "domain": {}}])
def test_experiment_spec_with_bad_structure_is_config_error(tmp_path, capsys,
                                                            doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["experiment", "--spec", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_form_with_bad_structure_is_config_error(fixtures, tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"n": 2, "k": 1, "terms": [{"index": 1}]}))
    args = seminorm_args(fixtures)
    args[2] = str(path)
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_internal_type_error_propagates(fixtures, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    monkeypatch.setattr("formflux.cli.fixed_theta_seminorm", broken)
    with pytest.raises(TypeError, match="internal bug"):
        main(seminorm_args(fixtures, "--theta", "0.9"))


class _Report:
    rows = []
    passed = True

    def summary(self):
        return "[PASS] stub"


@pytest.fixture
def run_seeds(monkeypatch):
    """Replace run_experiment by a stub recording each call's seed."""
    seeds = []

    def stub(name, samples=None, seed=None):
        seeds.append(seed)
        return _Report()

    monkeypatch.setattr("formflux.cli.run_experiment", stub)
    return seeds


NAMED_RUNS = [["verify", "dd-zero"], ["experiment", "bbm-square-scalar"]]


@pytest.mark.parametrize("command", NAMED_RUNS)
def test_named_run_takes_env_seed_when_flag_absent(command, run_seeds,
                                                   monkeypatch, capsys):
    monkeypatch.setenv("FORMFLUX_SEED", "321")
    assert main(command) == 0
    assert run_seeds == [321]


@pytest.mark.parametrize("command", NAMED_RUNS)
def test_named_run_seed_flag_beats_env(command, run_seeds, monkeypatch, capsys):
    monkeypatch.setenv("FORMFLUX_SEED", "321")
    assert main(command + ["--seed", "5"]) == 0
    assert run_seeds == [5]


@pytest.mark.parametrize("command", NAMED_RUNS)
def test_named_run_without_seed_keeps_experiment_default(command, run_seeds,
                                                         monkeypatch, capsys):
    monkeypatch.delenv("FORMFLUX_SEED", raising=False)
    assert main(command) == 0
    assert run_seeds == [None]


@pytest.mark.parametrize("command", NAMED_RUNS)
def test_named_run_bad_env_seed_is_config_error(command, run_seeds,
                                                monkeypatch, capsys):
    monkeypatch.setenv("FORMFLUX_SEED", "soon")
    assert main(command) == 2
    assert run_seeds == []


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_argv(heading):
    """The arguments of the formflux command in the first sh block after a
    README heading."""
    section = README.read_text(encoding="utf-8").split(heading + "\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    argv = shlex.split(block.replace("\\\n", " "))
    assert argv[0] == "formflux"
    return argv[1:]


@pytest.mark.parametrize("heading, stream", [
    ("### seminorm: fixed-theta estimates", "out"),
    ("### sweep: theta grid with extrapolation", "err"),
])
def test_readme_examples_reproduce(fixtures, capsys, monkeypatch, heading,
                                   stream):
    """The README's seminorm CSV and sweep summary, line for line, from the
    dx1.json and unit-square.json the fixture writes."""
    monkeypatch.chdir(fixtures["dir"])
    monkeypatch.delenv("FORMFLUX_SEED", raising=False)
    assert main(readme_argv(heading)) == 0
    lines = getattr(capsys.readouterr(), stream).splitlines()
    readme_lines = README.read_text(encoding="utf-8").splitlines()
    assert lines and [line for line in lines if line not in readme_lines] == []
