"""formflux benchmark: one workload per process, BLAS pinned to 1 thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The timed section repeats passes of the
workload over the same seeded inputs until ``--seconds`` have elapsed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the pass times and the estimate CSV digest.

--trace 0 reports the end-to-end metrics.  Operation times are in units
of a reference kernel timed between operations (see refclock.py), because
the host's speed changes by up to 1.7x for minutes at a time; the seconds
stay in the info line.
  pass_ref     one pass: the sum over its operations of each operation's
               median time over the run's passes
  setup_s      median over fresh interpreters of import plus building the
               workload's objects, up to its first estimate or check call;
               each probe is normalized by the reference samples taken just
               before and after it, then scaled by REF_NOMINAL_S, so it reads
               in seconds at the baseline host's usual speed
  peak_rss_mb  the process's peak resident set size
  case_p50_ref, case_p99_ref
               median and 99th percentile over cases of each case's median
               time; a case is a fixed-theta estimate, a mollifier theta (two
               estimates and their comparison) or a single-tuple check call

--trace 1 alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see tracing.py), plus the tracing overhead:
the median, over adjacent pairs, of traced over untraced pass time.  The
spans are written to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# BLAS and OpenMP pools, pinned before numpy is first imported; child
# processes inherit the setting
THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 9
# the reference kernel's median time on the baseline host (README.md):
# setup_s is set-up time in reference units times this
REF_NOMINAL_S = 0.0045
PROBE_TIMEOUT_S = 60

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def import_workloads():
    """Import the benchmark's workloads against the checkout's src/."""
    if not (SRC / "formflux" / "__init__.py").is_file():
        sys.exit(f"error: no formflux package under {SRC}; run from a source "
                 "checkout")
    sys.path.insert(0, str(SRC))
    import formflux
    import workloads

    if Path(formflux.__file__).resolve().parent != SRC / "formflux":
        sys.exit(f"error: imported formflux from {formflux.__file__}, not {SRC}")
    return workloads


def setup_probe(name, seed):
    """Time import and set-up up to the workload's first boundary call."""
    start = time.perf_counter()
    workloads = import_workloads()
    workload = workloads.WORKLOADS[name](seed)
    workload.prepare()
    try:
        with workloads.logged_calls(*workload.boundary, [], stop_at_first=True):
            workload.run_pass()
    except workloads.SetupDone:
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    sys.exit(f"error: {name} never reached its first boundary call")


def measure_setup(name, seed, clock):
    """Set-up times of fresh interpreters: (seconds, reference units) per
    probe, each divided by the mean reference sample around its probe."""
    probes = []
    for _ in range(SETUP_PROBES):
        clock.sample()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        clock.sample()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: set-up probe exited with {proc.returncode}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        probes.append((seconds, seconds / statistics.mean(clock.refs[-2:])))
    return probes


def git_commit():
    """The checkout's commit read from .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def normalized_times(runs):
    """Per operation and per case, the median over passes of the time in
    reference units; ``runs`` holds one {op key: (case, time)} per pass."""
    ops, cases = {}, {}
    for times in runs:
        per_case = {}
        for key, (case, t) in times.items():
            ops.setdefault(key, []).append(t)
            if case is not None:
                per_case[case] = per_case.get(case, 0.0) + t
        for case, t in per_case.items():
            cases.setdefault(case, []).append(t)
    return ({k: statistics.median(v) for k, v in ops.items()},
            sorted(statistics.median(v) for v in cases.values()))


def run(args):
    workloads = import_workloads()
    tracer = clock = None
    setup = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    else:
        import refclock

        clock = refclock.RefClock()
        setup = measure_setup(args.workload, args.seed, clock)
    workload = workloads.WORKLOADS[args.workload](args.seed, clock)
    workload.prepare()

    results, norms, refs, walls, traced_walls = [], [], [], [], []
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        if clock is not None:
            clock.reset()
        start = time.perf_counter()
        if traced:
            with tracer.active():
                res = workload.run_pass()
        else:
            res = workload.run_pass()
        (traced_walls if traced else walls).append(time.perf_counter() - start)
        if clock is not None:
            clock.sample()
            norms.append({key: (case, clock.normalize(t0, t1))
                          for key, t0, t1, case in res.ops})
            refs.extend(clock.refs)
        results.append(res)
        enough = tracer is None or traced_walls
        if enough and time.perf_counter() - began >= args.seconds:
            break

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    digests = sorted({r.digest for r in results})
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(results),
        "pass_wall_s": walls,
        "traced_pass_wall_s": traced_walls,
        "setup_probe_s": [seconds for seconds, _ in setup],
        "setup_probe_ref": [ref for _, ref in setup],
        "output_sha256": digests,
        "notes": {k: v for k, v in results[0].notes.items() if k != "failures"},
        "failures": [f for r in results for f in r.notes.get("failures", [])][:20],
        "env": environment(),
    }

    if tracer is None:
        ops, cases = normalized_times(norms)
        if not cases:
            sys.exit("error: no case completed in any pass")
        info["cases"] = len(cases)
        info["operations_timed"] = len(ops)
        info["reference_s"] = statistics.median(refs)
        metrics = {
            "pass_ref": (sum(ops.values()), "ref"),
            "setup_s": (
                statistics.median(ref for _, ref in setup) * REF_NOMINAL_S, "s"
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "case_p50_ref": (statistics.median(cases), "ref"),
            "case_p99_ref": (percentile(cases, 99), "ref"),
        }
    else:
        missing = sorted(tracing.EXPECTED[args.workload] - tracing.fired(tracer.spans))
        if missing:
            sys.exit(f"error: expected spans did not fire: {missing}")
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        info["spans"] = len(tracer.spans)
        info["span_file"] = str(span_file.relative_to(ROOT))
        layers = tracing.layer_metrics(tracer.spans, len(traced_walls))
        layers["trace.overhead_ratio"] = statistics.median(
            t / u for u, t in zip(walls, traced_walls)
        )
        metrics = {
            name: (layers[name], unit)
            for name, (unit, _) in tracing.LAYER_METRICS.items()
        }

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cone", "sweep-rough", "mollifier",
                                 "checks-small"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
