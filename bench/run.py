"""Benchmark of hmpident: seeded workloads, ground-truth checks, end-to-end and per-layer metrics.

    python3 bench/run.py --workload large_hmp --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  Every
workload is a closed loop driven by this one process: the next instance
starts only after the previous verdict.  With --trace 0 the run measures for
about --seconds seconds and reports the end-to-end metrics; with --trace 1 it
runs a fixed number of passes untraced, then traced, and reports per-layer
numbers.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# numpy reads the BLAS thread count when it is first imported, so this module
# imports workloads, tracing and hmpident only inside functions, after
# pin_blas_threads has run
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
STARTUP_REPEATS = 3
# a fresh process up to its first verdict: interpreter, import, first BLAS call
SETUP_CODE = ("import hmpident as hi\n"
              "hi.identify(hi.full_distribution(hi.random_stochastic(5, 0), 15))\n")

WORKLOADS = ("large_hmp", "random_tables", "cli_files", "small_batch")
# blocks of at most 64x64 gain nothing from BLAS threads, which only add
# spin-wait contention with the caller; the other workloads use nproc threads
SINGLE_THREADED = ("small_batch",)
END_TO_END = (("setup_s", "s"), ("verdicts_per_s", "1/s"), ("verdict_s_p50", "s"),
              ("verdict_s_p90", "s"), ("simulate_s_p50", "s"), ("peak_rss_mb", "MB"),
              ("ok_share", "ratio"))

# traced-run metrics besides the per-layer ones in tracing.LAYER_METRICS
TRACE_EXTRAS = (("cli.startup_s", "s"), ("blas.threads", "count"),
                ("blas.thread_speedup", "ratio"), ("trace.wall_s", "s"),
                ("trace.self_sum_s", "s"), ("trace.overhead_s", "s"),
                ("check.undecided_share", "ratio"))


def pin_blas_threads(threads: int):
    """Set the BLAS thread count for this process and its children; must run
    before numpy is imported."""
    for var in BLAS_VARS:
        os.environ[var] = str(threads)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def openblas_threads():
    """Thread count OpenBLAS reports, or None when the library is not found."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(threads: int) -> dict:
    import platform
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    reported = openblas_threads()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": reported if reported is not None else threads,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"}


def median_child_wall(argv, env, repeats) -> float:
    from workloads import timed_child
    walls = []
    for _ in range(repeats):
        wall, code, _rss = timed_child(argv, env)
        if code != 0:
            raise RuntimeError(f"{argv[1:]} exited with {code}")
        walls.append(wall)
    return statistics.median(walls)


def run_instance(workload, inst, env=None, tracer=None):
    """Run and judge one instance; cli_files runs CLI subprocesses with `env`,
    or cli.main in this process when env is None (traced runs)."""
    import workloads as w
    if workload == "cli_files":
        return w.guarded(w.run_cli, inst, OUT, env)
    return w.guarded(w.run_library, inst, tracer)


def timed_loop(workload, seed, seconds, env):
    """Whole passes, closed loop, while another pass still fits in `seconds`."""
    import workloads as w
    size = len(w.SHAPES[workload])
    outcomes, ident, passes = [], 0, 0
    start = time.perf_counter()
    elapsed = 0.0
    while passes == 0 or elapsed + elapsed / passes <= seconds:
        for _ in range(size):
            inst = w.make_instance(workload, seed, ident)
            outcomes.append(run_instance(workload, inst, env))
            ident += 1
        passes += 1
        elapsed = time.perf_counter() - start
    return outcomes


def pass_instances(workload, seed):
    import workloads as w
    count = w.TRACE_PASSES[workload] * len(w.SHAPES[workload])
    return [w.make_instance(workload, seed, i) for i in range(count)]


def region_wall(workload, outcome) -> float:
    """Time of an instance's timed regions, comparable with its spans' self times."""
    wall = outcome.verdict_s or 0.0
    return wall + sum(outcome.simulate_s) if workload == "cli_files" else wall


def timed_pass(workload, instances):
    """One untraced pass in this process; returns the summed region wall."""
    return sum(region_wall(workload, run_instance(workload, inst)) for inst in instances)


def traced_pass(workload, instances, tracer):
    """Each instance untraced, traced, untraced again, so that drift does not
    count as tracing overhead; the first instance runs once before, so that
    warming up does not either.

    Returns (untraced wall, traced wall, traced outcomes)."""
    run_instance(workload, instances[0])
    untraced = traced = 0.0
    outcomes = []
    for inst in instances:
        first = region_wall(workload, run_instance(workload, inst))
        tracer.instance = inst.ident
        with tracer:
            outcome = run_instance(workload, inst, tracer=tracer)
        outcomes.append(outcome)
        traced += region_wall(workload, outcome)
        last = region_wall(workload, run_instance(workload, inst))
        untraced += (first + last) / 2
    return untraced, traced, outcomes


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, outcomes, setup_s) -> dict:
    import resource
    times = [o.verdict_s for o in outcomes if o.verdict_s is not None]
    sims = [t for o in outcomes for t in o.simulate_s]
    failed = sum(o.status == "failed" for o in outcomes)
    if workload == "cli_files":
        peak_kb = max(o.rss_kb for o in outcomes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "verdicts_per_s": (len(outcomes) - failed) / sum(times) if times else 0.0,
        "verdict_s_p50": statistics.median(times) if times else 0.0,
        "verdict_s_p90": p90(times),
        "simulate_s_p50": statistics.median(sims) if sims else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_share": 1.0 - failed / len(outcomes),
    }


def summary(outcomes) -> dict:
    failures = [o.detail for o in outcomes if o.status == "failed"]
    undecided = sum(o.status == "undecided" for o in outcomes)
    return {"attempted": len(outcomes), "failed": len(failures), "undecided": undecided,
            "undecided_share": undecided / len(outcomes),
            "verdict_samples": sum(o.verdict_s is not None for o in outcomes),
            "failures": failures[:20]}


def trace_metrics(args, threads, env, info):
    """Per-layer numbers from one traced pass, and the outcomes of that pass."""
    from tracing import COMPUTED, Tracer
    nproc = info["env"]["nproc"]
    instances = pass_instances(args.workload, args.seed)
    tracer = Tracer()
    untraced_wall, traced_wall, outcomes = traced_pass(args.workload, instances, tracer)
    # the same pass with the other thread count: 1 if this run has nproc
    other_threads = 1 if threads > 1 else nproc
    other = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--pass-wall", "--blas-threads", str(other_threads)],
        env=env, capture_output=True, text=True, check=True)
    other_wall = json.loads(other.stdout.strip().splitlines()[-1])["pass_wall_s"]
    single_wall, multi_wall = ((other_wall, untraced_wall) if threads > 1
                               else (untraced_wall, other_wall))
    values = tracer.layer_metrics()
    values.update({
        "cli.startup_s": median_child_wall(
            [sys.executable, "-m", "hmpident.cli", "--version"], env, STARTUP_REPEATS),
        "blas.threads": info["env"]["blas_threads"],
        "blas.thread_speedup": single_wall / multi_wall,
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": tracer.self_time_sum(),
        "trace.overhead_s": traced_wall - untraced_wall,
        "check.undecided_share": summary(outcomes)["undecided_share"],
    })
    # the overhead is a difference of two walls; where tracing costs less than
    # their noise it can come out negative, so its size is what bounds the gap
    unattributed = traced_wall - values["trace.self_sum_s"]
    info["self_time_check"] = {
        "unattributed_s": unattributed,
        "within_overhead": abs(unattributed) <= abs(values["trace.overhead_s"])}
    info["computed"] = list(COMPUTED)
    info["untraced_wall_s"] = untraced_wall
    info["blas_pass_wall_s"] = {"1": single_wall, str(nproc): multi_wall}
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return values, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-wall", action="store_true",
                        help="internal: time one untraced trace pass and print it")
    parser.add_argument("--blas-threads", type=int,
                        help="internal: BLAS threads instead of the workload's own")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hmpident", "__init__.py")):
        print(f"error: no hmpident package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]
    workload_threads = 1 if args.workload in SINGLE_THREADED else nproc
    threads = min(args.blas_threads or workload_threads, nproc)
    pin_blas_threads(threads)
    import hmpident as hi
    if os.path.dirname(os.path.abspath(hi.__file__)) != os.path.join(SRC, "hmpident"):
        print(f"error: imported hmpident from {hi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    # warm up lazy set-up in this process, so timed instances exclude it
    hi.identify(hi.full_distribution(hi.random_stochastic(5, 0), 15))

    if args.pass_wall:
        wall = timed_pass(args.workload, pass_instances(args.workload, args.seed))
        print(json.dumps({"pass_wall_s": wall}))
        return 0

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(threads)}
    print(json.dumps({"env": info["env"]}))
    if args.trace == 0:
        setup_s = median_child_wall([sys.executable, "-c", SETUP_CODE], env, SETUP_REPEATS)
        outcomes = timed_loop(args.workload, args.seed, args.seconds, env)
        values = end_to_end(args.workload, outcomes, setup_s)
        units = dict(END_TO_END)
    else:
        from tracing import LAYER_METRICS
        values, outcomes = trace_metrics(args, threads, env, info)
        units = dict(LAYER_METRICS + TRACE_EXTRAS)

    counts = summary(outcomes)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    info.update(counts=counts, metrics=metrics)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(info, fh, indent=1)
    print(f"workload {args.workload} seed {args.seed}: {counts['attempted']} instances, "
          f"{counts['verdict_samples']} timed, {counts['failed']} failed, "
          f"{counts['undecided']} cannot_decide ({counts['undecided_share']:.4g} of "
          f"attempted)")
    for failure in counts["failures"]:
        print(f"  failed: {failure}")
    if "self_time_check" in info:
        check = info["self_time_check"]
        print(f"self times leave {check['unattributed_s']:.6f} s of the traced wall "
              f"unattributed; within the tracing overhead: {check['within_overhead']}")
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": counts["failed"] == 0, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
