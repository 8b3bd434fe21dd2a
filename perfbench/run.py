"""rgsv benchmark: a single-process, closed-loop harness with one client.

    python3 perfbench/run.py --workload lowrank_tall --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run it from anywhere inside a checkout; it builds nothing and imports
rgsv from the checkout's ``src``. Each operation starts only after the
previous one finished. With ``--trace 0`` it measures the end-to-end
metrics; with ``--trace 1`` it makes a separate traced run that gives the
per-module metrics. It prints one line per metric and, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A results file with the run's environment, the metrics'
sample counts and the raw samples goes to ``perfbench/results/``. See
``perfbench/README.md`` for what each metric means.
"""

import os
import sys

# Pin BLAS before numpy loads it. One thread: on the 2-core machine this
# benchmark was written on, a second thread did not speed up a solve and
# only added run-to-run noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The end-to-end metrics BENCHMARK.json gates on: name -> unit, in its
# order. The *_tail metrics are printed and recorded too, but not gated:
# a run holds 6 to 50 samples of each operation, too few for a tail that
# repeats from run to run.
END_TO_END = {
    "solve_s": "s",
    "cli_compare_s": "s",
    "cli_bounds_s": "s",
    "accurate_digits": "digits",
    "peak_alloc_mb": "MB",
    "cli_rss_mb": "MB",
    "setup_s": "s",
}
REPORTED = ["solve_s", "solve_s_tail", "cli_compare_s", "cli_compare_s_tail", "cli_bounds_s",
            "cli_bounds_s_tail", "accurate_digits", "peak_alloc_mb", "cli_rss_mb", "setup_s"]
SETUP_REPEATS = 5
# One cycle of the closed loop. Solves are cheap next to whole processes,
# so they run twice per cycle to gather more samples.
CYCLE = ("solve", "compare", "solve", "bounds")
TRACED_CYCLE = ("solve", "traced_solve", "compare", "bounds")
IMPORT_REPEATS = 3
# The smallest error a float64 GSV can carry, so accurate_digits is finite.
ERROR_FLOOR = 2.0**-53


def tail(values):
    """(value, percentile, samples beyond) for the highest percentile that
    still has at least ten samples beyond it; with fewer than eleven
    samples no percentile does, and the maximum is reported."""
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0, 0
    return xs[k], 100.0 * (k + 1) / len(xs), 10


def closed_loop(cycle, ops, seconds, tally):
    """Run the cycle's operations one after another, each starting when
    the previous one ended, until ``seconds`` have passed and at least one
    whole cycle has run. Returns the results of the operations that
    succeeded, per kind."""
    results = {kind: [] for kind in cycle}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(cycle) or time.perf_counter() < deadline:
        kind = cycle[i % len(cycle)]
        i += 1
        result = tally.run(ops[kind])
        if result is not None:
            results[kind].append(result)
    return results


def measure(workload, seed, seconds, workdir, env):
    """The end-to-end run: set up, then the closed loop for ``seconds``."""
    from ops import Tally, cli_process, run_process, solve

    tally = Tally()
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setup.append(time.perf_counter() - t0)
    opts = inputs.options(seed)
    # One untimed process compiles rgsv's bytecode in a fresh checkout.
    run_process([sys.executable, "-m", "rgsv", "--help"], env, workdir, workdir / "warmup.stderr")

    def peak_alloc():
        tracemalloc.start()
        try:
            solve(inputs, opts, tally)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    peak = tally.run(peak_alloc)  # untimed; also warms the solve path
    ops = {
        "solve": lambda: (solve(inputs, opts, tally), None),
        "compare": lambda: cli_process("compare", inputs, seed, workdir, env, tally),
        "bounds": lambda: cli_process("bounds", inputs, seed, workdir, env, tally),
    }
    results = closed_loop(CYCLE, ops, seconds, tally)
    samples = {kind: [t for t, _ in rs] for kind, rs in results.items()}
    rss = [mb for kind in ("compare", "bounds") for _, mb in results[kind]]

    metrics = {}
    for key, name in (("solve", "solve_s"), ("compare", "cli_compare_s"), ("bounds", "cli_bounds_s")):
        xs = samples[key]
        if xs:
            value, pct, beyond = tail(xs)
            metrics[name] = {"value": statistics.median(xs), "samples": len(xs)}
            metrics[name + "_tail"] = {"value": value, "samples": len(xs),
                                       "percentile": pct, "beyond": beyond}
    if tally.attempted > tally.failed:
        metrics["accurate_digits"] = {"value": -math.log10(max(tally.max_error, ERROR_FLOOR)),
                                      "samples": tally.attempted - tally.failed}
    if peak is not None:
        metrics["peak_alloc_mb"] = {"value": peak, "samples": 1}
    if rss:
        metrics["cli_rss_mb"] = {"value": max(rss), "samples": len(rss)}
    metrics["setup_s"] = {"value": statistics.median(setup), "samples": len(setup)}
    for name in REPORTED:
        unit = END_TO_END.get(name.removesuffix("_tail"))
        metrics.setdefault(name, {"value": None, "samples": 0})["unit"] = unit
    return tally, {name: metrics[name] for name in REPORTED}, samples


def import_times(env, workdir):
    """Median seconds of `import rgsv` and of scipy.io within it, from
    ``python -X importtime`` in fresh processes. scipy.io reads 0 when
    importing rgsv no longer imports it."""
    from ops import CheckFailed, run_process

    totals = {"rgsv": [], "scipy.io": []}
    log = workdir / "importtime.stderr"
    for _ in range(IMPORT_REPEATS):
        argv = [sys.executable, "-X", "importtime", "-c", "import rgsv"]
        code, _, _ = run_process(argv, env, workdir, log)
        if code != 0:
            raise CheckFailed(f"import rgsv exited {code}")
        cumulative = {}
        for line in log.read_text().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        for name, xs in totals.items():
            xs.append(cumulative.get(name, 0.0))
    return {"cli.import_s": statistics.median(totals["rgsv"]),
            "cli.import_scipy_s": statistics.median(totals["scipy.io"])}


def measure_traced(workload, seed, seconds, workdir, env):
    """The traced run: per-module times and counters from spans, with
    untraced solves interleaved to give the tracing overhead."""
    import tracing
    from ops import Tally, cli_in_process, solve

    tally = Tally()
    tr = tracing.Tracer()
    with tr.operation("setup"):
        inputs = workload.setup(seed, workdir)
    summaries = {"setup": [tracing.setup_summary(tr, tr.last_root)],
                 "solve": [], "compare": [], "bounds": []}
    tr.release(tr.last_root)
    extra = import_times(env, workdir)
    opts = inputs.options(seed)
    tally.run(lambda: solve(inputs, opts, tally))  # warm-up

    def traced_solve():
        try:
            solve(inputs, opts, tally, around=lambda: tr.operation("solve"))
            summary = tracing.solve_summary(tr, tr.last_root, explicit=not summaries["solve"])
            summaries["solve"].append(summary)
        finally:
            tr.release(tr.last_root)

    def traced_command(command):
        try:
            cli_in_process(command, inputs, seed, workdir, tally,
                           around=lambda: tr.operation("cli." + command))
            summaries[command].append(tracing.cli_summary(tr, tr.last_root))
        finally:
            tr.release(tr.last_root)

    ops = {
        "solve": lambda: solve(inputs, opts, tally),
        "traced_solve": traced_solve,
        "compare": lambda: traced_command("compare"),
        "bounds": lambda: traced_command("bounds"),
    }
    untraced = closed_loop(TRACED_CYCLE, ops, seconds, tally)["solve"]

    solves = summaries["solve"]
    if solves and untraced:
        traced_s = statistics.median(s["solve_s"] for s in solves)
        extra["trace.overhead_frac"] = traced_s / statistics.median(untraced) - 1.0
        extra["trace.accounted_frac"] = statistics.median(s["trace.accounted_frac"] for s in solves)
    layers = tracing.per_layer(tr, summaries, extra)
    counts = {kind: len(s) for kind, s in summaries.items()}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    spans = [(sp.name, sp.start, sp.end, sp.parent) for sp in tr.spans]
    samples = {"untraced_solve": untraced, "operations": counts,
               "missing_targets": sorted(tr.missing)}
    return tally, metrics, samples, spans


def environment(seed, seconds, trace_flag):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = "unknown"
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace_flag,
    }


def _commit() -> str:
    """HEAD's commit from .git in the checkout, without running git (which
    would search directories above it); "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(value):
    return "unmeasured" if value is None else f"{value:.6g}"


def run_workload(name, seed, seconds, trace_flag):
    from ops import child_env
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(SRC, BLAS_THREADS)
    try:
        if trace_flag:
            tally, metrics, samples, spans = measure_traced(workload, seed, seconds, workdir, env)
        else:
            tally, metrics, samples = measure(workload, seed, seconds, workdir, env)
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted
    print(f"workload {name}, seed {seed}, trace {trace_flag}: {tally.attempted} operations, "
          f"{tally.failed} failed (failed_frac {failed_frac:.6g})")
    for error in tally.errors:
        print(f"  failure: {error}")
    for metric, m in metrics.items():
        note = ""
        if m.get("samples"):
            note = f"  (n={m['samples']}"
            if "percentile" in m:
                note += f", p{m['percentile']:.4g}, {m['beyond']} beyond"
            note += ")"
        print(f"  {metric:30s} {_fmt(m['value']):>12s} {m['unit']}{note}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{name}_seed{seed}_trace{trace_flag}"
    record = {
        "workload": name,
        "environment": environment(seed, seconds, trace_flag),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": failed_frac,
        "errors": tally.errors,
        "metrics": metrics,
        "samples": samples,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    if spans is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")
    print(f"  results: {stem.relative_to(ROOT)}.json")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()
                    if trace_flag or k in END_TO_END},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="lowrank_tall, dense_complex, cli_files, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rgsv" / "__init__.py").is_file():
        print(f"error: no rgsv sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} or all")
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if args.workload == "all":
        print(json.dumps(results, default=float))
    else:
        print(json.dumps(results[args.workload], default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
