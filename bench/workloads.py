"""Workload instances, how each is run, and the ground-truth check of its verdict.

Every workload is an endless, seeded sequence of instances, cycling through
the workload's shapes; a pass is one cycle, so runs made of whole passes
share one mix of sizes.  The program only ever sees the generated table
(library workloads) or the generated parameter file (cli_files).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import hmpident as hi
from hmpident import cli
from hmpident.identify import CERTIFY_TOL

PARAM_TOL = 1e-6
EXIT_CODES = {hi.HMP: 0, hi.NO_HMP: 2, hi.CANNOT_DECIDE: 3}

# (d, n) per instance of one pass; d is None for a uniform random table
SHAPES = {
    "large_hmp": [(6, 21)],
    "random_tables": [(None, 17), (None, 19), (None, 21)],
    "cli_files": [(5, 19)],
    "small_batch": [(d, n) for d in range(2, 7) for n in (2 * d - 1, 2 * d, 2 * d + 1)],
}
WORKLOADS = tuple(SHAPES)
# the table of an instance is produced this many times, each one timed
SIMULATE_REPEATS = 3
# state count of the generator timed in place of a random table's producer
STAND_IN_D = 6
# passes in a traced run: enough small_batch instances for stable counts
TRACE_PASSES = {"large_hmp": 1, "random_tables": 1, "cli_files": 1, "small_batch": 10}


@dataclass
class Instance:
    ident: int
    seed: int                    # of the generator or of the random draw
    d: int | None                # state count of the generator; None: random table
    n: int
    params: hi.HmpParams | None
    table: np.ndarray | None     # filled by materialize() for library workloads
    simulate_s: list = field(default_factory=list)


@dataclass
class Outcome:
    """One instance's result: status is 'ok', 'undecided' or 'failed'."""
    status: str
    verdict_s: float | None
    simulate_s: list
    detail: str = ""
    rss_kb: int = 0


def instance_seed(seed: int, workload: str, ident: int) -> int:
    tag = WORKLOADS.index(workload)
    return int(np.random.SeedSequence([seed, tag, ident]).generate_state(1)[0])


def make_instance(workload: str, seed: int, ident: int) -> Instance:
    shapes = SHAPES[workload]
    d, n = shapes[ident % len(shapes)]
    s = instance_seed(seed, workload, ident)
    params = None if d is None else hi.random_stochastic(d, s)
    return Instance(ident, s, d, n, params, None)


def materialize(inst: Instance):
    """Produce the exact table of a library instance, timing the program's
    table producer, hmp.full_distribution, on each of the repeats.

    A generator's table is the one full_distribution makes.  A random table is
    a seeded uniform draw normalized to sum 1, made by the benchmark; for it,
    full_distribution is timed on a stand-in generator
    random_stochastic(STAND_IN_D, seed) at the same n, so that simulate_s is a
    figure of the program at the workload's sizes.  The stand-in's table is
    not identified."""
    if inst.table is not None:
        return
    source = inst.params if inst.d is not None else hi.random_stochastic(STAND_IN_D, inst.seed)
    times = []
    for _ in range(SIMULATE_REPEATS):
        start = time.perf_counter()
        table = hi.full_distribution(source, inst.n).table
        times.append(time.perf_counter() - start)
    if inst.d is None:
        table = np.random.default_rng(inst.seed).random(2 ** inst.n)
        table /= table.sum()
    inst.table, inst.simulate_s = table, times


def judge(inst: Instance, kind: str, states: int, params, certified: bool | None) -> Outcome:
    """Ground truth: a random table is never an HMP; a generator must come back
    as an HMP on d states that certifies and whose parameters match it within
    PARAM_TOL under some relabeling of states.  cannot_decide is not a failure."""
    if kind == hi.CANNOT_DECIDE:
        return Outcome("undecided", None, [], "cannot_decide")
    if inst.d is None:
        if kind == hi.HMP:
            return Outcome("failed", None, [], "hmp verdict on a random table")
        return Outcome("ok", None, [])
    if kind != hi.HMP or states != inst.d:
        return Outcome("failed", None, [], f"generator on {inst.d} states returned {kind}/{states}")
    if not certified:
        return Outcome("failed", None, [], f"certify failed at {CERTIFY_TOL}")
    if hi.hmp.equivalent_up_to_permutation(params, inst.params, PARAM_TOL) is None:
        return Outcome("failed", None, [],
                       f"parameters differ by more than {PARAM_TOL} under every relabeling")
    return Outcome("ok", None, [])


def run_library(inst: Instance, tracer=None) -> Outcome:
    """Time StringDistribution + identify (+ certify for hmp) on the exact table."""
    materialize(inst)
    start = time.perf_counter()
    if tracer is None:
        dist = hi.StringDistribution(inst.n, inst.table)
    else:
        dist = tracer.call("distribution.StringDistribution", hi.StringDistribution,
                           inst.n, inst.table)
    verdict = hi.identify(dist)
    report = hi.certify(dist, verdict) if verdict.kind == hi.HMP else None
    elapsed = time.perf_counter() - start
    out = judge(inst, verdict.kind, verdict.states, verdict.params,
                report is not None and report.passed)
    out.verdict_s, out.simulate_s = elapsed, inst.simulate_s
    return out


def _write_params(params: hi.HmpParams, path):
    # json writes floats with repr, which round trips every double
    with open(path, "w") as fh:
        json.dump({"d": params.d, "transition": params.transition.tolist(),
                   "emission": params.emission.tolist(),
                   "initial": params.initial.tolist()}, fh)


def _judge_verdict_file(inst: Instance, code: int, verdict_path) -> Outcome:
    with open(verdict_path) as fh:
        payload = json.load(fh)
    kind = payload["verdict"]
    if code != EXIT_CODES.get(kind):
        return Outcome("failed", None, [], f"exit code {code} for verdict {kind}")
    params = None
    if payload["params"] is not None:
        params = hi.hmp.params_from_jsonable(payload["params"])
    residual = payload["max_residual"]
    return judge(inst, kind, payload["states"], params,
                 residual is not None and residual <= CERTIFY_TOL)


def timed_child(argv, env) -> tuple[float, int, int]:
    """Run a child to completion; return wall seconds, exit code and peak RSS (KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, proc.returncode, usage.ru_maxrss


def _cli_step(argv, env) -> tuple[float, int, int]:
    """One CLI call: a fresh `python -m hmpident.cli` process with `env`, or
    cli.main in this process when env is None (traced runs).  Returns wall
    seconds, exit code and peak RSS (KiB, 0 in this process)."""
    if env is not None:
        return timed_child([sys.executable, "-m", "hmpident.cli"] + argv, env)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - start, code, 0


def run_cli(inst: Instance, workdir, env=None) -> Outcome:
    """simulate writes the distribution file, then identify writes the verdict file."""
    params_path = os.path.join(workdir, f"params-{inst.ident}.json")
    dist_path = os.path.join(workdir, f"dist-{inst.ident}.json")
    verdict_path = os.path.join(workdir, f"verdict-{inst.ident}.json")
    _write_params(inst.params, params_path)
    try:
        sim_s, code, rss_sim = _cli_step(
            ["simulate", "--params", params_path, "--length", str(inst.n), "--out", dist_path],
            env)
        if code != 0:
            return Outcome("failed", None, [sim_s], f"simulate exit code {code}", rss_kb=rss_sim)
        ver_s, code, rss_id = _cli_step(
            ["identify", "--dist", dist_path, "--out", verdict_path], env)
        rss = max(rss_sim, rss_id)
        if code not in EXIT_CODES.values():
            return Outcome("failed", ver_s, [sim_s], f"identify exit code {code}", rss_kb=rss)
        out = _judge_verdict_file(inst, code, verdict_path)
        out.verdict_s, out.simulate_s, out.rss_kb = ver_s, [sim_s], rss
        return out
    finally:
        for path in (params_path, dist_path, verdict_path):
            if os.path.exists(path):
                os.remove(path)


def guarded(run, inst: Instance, *args) -> Outcome:
    """Run one instance; an exception is that instance's failure, not the run's."""
    try:
        out = run(inst, *args)
    except Exception as exc:  # the benchmark must keep going and count it
        out = Outcome("failed", None, [], f"{type(exc).__name__}: {exc}")
    if out.status == "failed":
        out.detail = f"instance {inst.ident} (d={inst.d}, n={inst.n}, seed {inst.seed}): {out.detail}"
    return out
