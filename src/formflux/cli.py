"""Command-line front end.

Subcommands: seminorm (fixed-theta estimates), sweep (theta grid with
extrapolation and an optional SVG), verify (named verification suites),
and experiment (named or JSON-specified limit experiments).

CSV goes to stdout and, with --out DIR, to DIR/<subcommand>.csv; the
human-readable summary goes to stderr.  The default seed is 0 for seminorm
and sweep, and the experiment's or suite's own seed for verify and
experiment; the FORMFLUX_SEED environment variable overrides it, an
explicit --seed flag overrides both.  Identical flags and seed give
byte-identical CSV.

Exit codes: 0 success, 1 assertion failure, 2 usage or configuration
error, 3 estimator inefficiency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .alexander_spanier import CoboundaryMultifunction, IntegrationMultifunction
from .domains import domain_from_json
from .errors import ArgumentError, InefficiencyError, UnsupportedOperationError
from .estimates import check_seed
from .experiments import (
    EXPERIMENT_NAMES,
    SUITE_NAMES,
    ExperimentSpec,
    run_bbm,
    run_experiment,
)
from .forms import form_from_json
from .seminorms import (
    SeminormConfig,
    VARIANTS,
    estimates_to_csv,
    fixed_theta_seminorm,
    theta_sweep,
)
from .svgplot import sweep_svg

DEFAULT_SEED = 0


def _load_json(path, decode):
    """decode(the JSON document at path); an unreadable file or a malformed
    document is a usage error, whatever the decoder raises for it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return decode(json.load(fh))
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"{path}: {exc}") from exc


def _resolve_seed(args, fallback=DEFAULT_SEED):
    seed, source = getattr(args, "seed", None), "--seed"
    if seed is None:
        seed, source = os.environ.get("FORMFLUX_SEED"), "FORMFLUX_SEED"
        if seed is None:
            return fallback
        try:
            seed = int(seed)
        except ValueError:
            pass  # check_seed refuses the string
    return check_seed(seed, source)


def _build_multifunction(form, k):
    if k is None or k == form.degree:
        return IntegrationMultifunction(form)
    if k == form.degree + 1:
        return CoboundaryMultifunction(form)
    raise ArgumentError(
        f"--k must be {form.degree} (integration function) or "
        f"{form.degree + 1} (its coboundary) for a degree-{form.degree} form"
    )


def _config_from_args(args, seed, theta=0.9, stream=0):
    return SeminormConfig(p=args.p, variant=args.variant, theta=theta,
                          samples=args.samples, seed=seed, R=args.R, c=args.c,
                          stream=stream)


def _emit(args, name, csv_text, svg_text=None, report_lines=()):
    sys.stdout.write(csv_text)
    for line in report_lines:
        print(line, file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, name + ".csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        if svg_text is not None:
            svg_path = os.path.join(args.out, name + ".svg")
            with open(svg_path, "w", encoding="utf-8") as fh:
                fh.write(svg_text)


def _emit_rows(args, name, report):
    """_emit the report's CSV, or say on stderr that it has no estimate
    rows, so that no CSV is printed or written."""
    if report.rows:
        _emit(args, name, report.to_csv())
    else:
        where = f" and nothing was written to {args.out}" if args.out else ""
        print(f"{name}: the report has no estimate rows, so no CSV is printed"
              f"{where}", file=sys.stderr)


def cmd_seminorm(args):
    form = _load_json(args.form, form_from_json)
    domain = _load_json(args.domain, domain_from_json)
    F = _build_multifunction(form, args.k)
    seed = _resolve_seed(args)
    thetas = args.theta or [0.9]
    rows = [
        fixed_theta_seminorm(F, domain, _config_from_args(args, seed, t, j))
        for j, t in enumerate(thetas)
    ]
    lines = [
        f"theta={t}: value = {r.value!r} +- {r.stderr!r}"
        for t, r in zip(thetas, rows)
    ]
    _emit(args, "seminorm", estimates_to_csv(rows), report_lines=lines)
    return 0


def cmd_sweep(args):
    form = _load_json(args.form, form_from_json)
    domain = _load_json(args.domain, domain_from_json)
    F = _build_multifunction(form, args.k)
    sweep = theta_sweep(F, domain, _config_from_args(args, _resolve_seed(args)),
                        args.theta)
    svg_text = sweep_svg(sweep) if args.out and not args.no_plot else None
    _emit(args, "sweep", estimates_to_csv(sweep.estimates), svg_text=svg_text,
          report_lines=sweep.report_lines())
    return 0


def cmd_verify(args):
    report = run_experiment(args.suite, samples=args.size,
                            seed=_resolve_seed(args, fallback=None))
    print(report.summary(), file=sys.stderr)
    _emit_rows(args, "verify-" + args.suite, report)
    return 0 if report.passed else 1


def cmd_experiment(args):
    if (args.name is None) == (args.spec is None):
        raise ArgumentError("give exactly one of an experiment name or --spec")
    seed = _resolve_seed(args, fallback=None)
    if args.spec is not None:
        spec = _load_json(args.spec, ExperimentSpec.from_json)
        report = run_bbm(spec.override(args.samples, seed))
        name = spec.name
    else:
        report = run_experiment(args.name, samples=args.samples, seed=seed)
        name = args.name
    print(report.summary(), file=sys.stderr)
    _emit_rows(args, "experiment-" + name, report)
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="formflux",
        description="Seminorm estimators and verification suites for "
        "simplicial integration functions of differential forms.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = argparse.ArgumentParser(add_help=False)
    est.add_argument("--form", required=True, help="form JSON file")
    est.add_argument("--domain", required=True, help="domain JSON file")
    est.add_argument("--p", type=float, default=2.0)
    est.add_argument("--k", type=int, default=None,
                     help="multifunction degree: the form degree gives the "
                     "integration function, degree + 1 its coboundary")
    est.add_argument("--theta", type=float, action="append", default=None)
    est.add_argument("--variant", choices=VARIANTS, default="full")
    est.add_argument("--R", type=float, default=None)
    est.add_argument("--c", type=float, default=None)
    est.add_argument("--samples", type=int, default=100000)
    est.add_argument("--seed", type=int, default=None)
    est.add_argument("--out", default=None, help="directory for CSV/SVG")

    p_semi = sub.add_parser("seminorm", parents=[est],
                            help="fixed-theta seminorm estimates")
    p_semi.set_defaults(func=cmd_seminorm)

    p_sweep = sub.add_parser("sweep", parents=[est],
                             help="theta sweep with extrapolation")
    p_sweep.add_argument("--no-plot", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    size = p_verify.add_mutually_exclusive_group()
    size.add_argument("--count", type=int, dest="size", metavar="COUNT")
    size.add_argument("--samples", type=int, dest="size", metavar="SAMPLES")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("experiment", help="run a limit experiment")
    p_exp.add_argument("name", nargs="?", choices=EXPERIMENT_NAMES,
                       default=None)
    p_exp.add_argument("--spec", default=None,
                       help="experiment spec JSON file")
    p_exp.add_argument("--samples", type=int, default=None)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InefficiencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArgumentError, UnsupportedOperationError, OSError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
