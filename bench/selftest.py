"""Self-test of the benchmark's own checks; exits non-zero on the first broken one.

    python3 bench/selftest.py

- an instance judged against a wrong expected verdict, or with recovered
  parameters off the generator's, counts as failed;
- a different seed gives different instances, the same seed the same ones;
- the computed per-layer counts repeat exactly between two traced passes;
- BENCHMARK.json lists the workloads and metrics that run.py produces.
"""
from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402

import hmpident as hi  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from tracing import COMPUTED, Tracer  # noqa: E402


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def wrong_expectations_fail():
    inst = w.make_instance("small_batch", 0, 0)
    check(w.run_library(inst).status == "ok", "a generator judged against its own state count passes")
    inst.d += 1
    check(w.run_library(inst).status == "failed", "a wrong expected state count is a failure")
    inst.d = None
    check(w.run_library(inst).status == "failed", "an hmp verdict where no_hmp is expected is a failure")
    check(w.judge(inst, hi.CANNOT_DECIDE, 1, None, None).status == "undecided",
          "cannot_decide is counted as undecided, not failed")
    inst = w.make_instance("small_batch", 0, 0)
    relabeled = hi.permute_states(inst.params, list(reversed(range(inst.d))))
    check(w.judge(inst, hi.HMP, inst.d, relabeled, True).status == "ok",
          "parameters equal to the generator's under a relabeling pass")
    off = hi.HmpParams(inst.d, relabeled.transition, relabeled.emission,
                       relabeled.initial + np.array([5e-6, -5e-6] + [0.0] * (inst.d - 2)))
    check(w.judge(inst, hi.HMP, inst.d, off, True).status == "failed",
          "parameters 5e-6 off the generator's under every relabeling are a failure")


def seeds_change_instances():
    check(run.WORKLOADS == w.WORKLOADS, "run.py and workloads.py list the same workloads")
    for name in w.WORKLOADS:
        def content(seed):
            inst = w.make_instance(name, seed, 0)
            if inst.params is not None:
                return inst.params.transition
            w.materialize(inst)
            return inst.table
        check(np.array_equal(content(0), content(0)), f"{name}: the same seed repeats the instance")
        check(not np.array_equal(content(0), content(1)), f"{name}: another seed changes the instance")


def computed_counts_repeat():
    runs = []
    for _ in range(2):
        instances = [w.make_instance("small_batch", 3, i) for i in range(15)]
        with Tracer() as tracer:
            for inst in instances:
                tracer.instance = inst.ident
                w.run_library(inst, tracer)
        values = tracer.layer_metrics()
        runs.append({k: v for k, v in values.items() if k in COMPUTED or k.endswith(".calls")})
    check(runs[0] == runs[1], "computed counts and call counts repeat exactly")


def benchmark_json_matches():
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    from tracing import LAYER_METRICS
    check(all(m["name"] in run.WORKLOADS for m in spec["workloads"]),
          "BENCHMARK.json names only workloads run.py accepts")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches what --trace 0 prints")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == list(LAYER_METRICS + run.TRACE_EXTRAS),
          "BENCHMARK.json per_layer matches what --trace 1 prints")


if __name__ == "__main__":
    benchmark_json_matches()
    wrong_expectations_fail()
    seeds_change_instances()
    computed_counts_repeat()
