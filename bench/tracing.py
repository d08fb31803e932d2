"""In-memory span tracing of hmpident, installed from outside the package.

Each traced function is replaced by a wrapper in every hmpident module that
holds a reference to it, so calls between modules (identify -> hankel_block
-> marginalize, cli -> load_distribution, ...) are all seen without editing
the package.  A span is (name, start, end, parent, instance); a layer's self
time is its span time minus the time of its child spans.  Counts that the
wrappers derive from shapes and results (SVD flops, marginal bytes, ratios)
are computed, not measured, and repeat exactly for the same inputs.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); the order fixes the per-layer report order
TARGETS = (
    ("hankel", "hankel_block", "hankel.hankel_block"),
    ("hankel", "numerical_rank", "hankel.numerical_rank"),
    ("hankel", "select_basis", "hankel.select_basis"),
    ("distribution", "validate", "distribution.validate"),
    ("distribution", "marginalize", "distribution.marginalize"),
    ("distribution", "load_distribution", "distribution.load"),
    ("distribution", "save_distribution", "distribution.save"),
    ("strings", "strings_of_length", "strings.strings_of_length"),
    ("jsonio", "write_json", "jsonio.write_json"),
    ("identify", "identify", "identify.identify"),
    ("identify", "certify", "identify.certify"),
    ("identify", "verdict_to_jsonable", "identify.verdict_to_jsonable"),
    ("finitary", "infer_finitary", "finitary.infer_finitary"),
    ("recover", "recover_hmm", "recover.recover_hmm"),
    ("hmp", "full_distribution", "hmp.full_distribution"),
    ("cli", "main", "cli.main"),
)
# methods of StringDistribution, patched on the class
METHODS = (("from_dict", "distribution.from_dict"), ("to_dict", "distribution.to_dict"))

# per-layer metrics the traced run reports, with their units; values not
# produced by a workload's code path are reported as 0
LAYER_METRICS = (
    ("hankel.numerical_rank.calls", "count"),
    ("hankel.numerical_rank.self_s", "s"),
    ("hankel.numerical_rank.flops", "flop"),
    ("hankel.numerical_rank.useful_sv_ratio", "ratio"),
    ("hankel.numerical_rank.borderline", "count"),
    ("hankel.numerical_rank.cut_margin_min", "ratio"),
    ("hankel.hankel_block.calls", "count"),
    ("hankel.hankel_block.self_s", "s"),
    ("hankel.select_basis.self_s", "s"),
    ("distribution.StringDistribution.self_s", "s"),
    ("distribution.validate.self_s", "s"),
    ("distribution.marginalize.calls", "count"),
    ("distribution.marginalize.self_s", "s"),
    ("distribution.marginalize.bytes", "B"),
    ("distribution.marginalize.useful_ratio", "ratio"),
    ("distribution.load.self_s", "s"),
    ("distribution.load.bytes", "B"),
    ("distribution.from_dict.self_s", "s"),
    ("distribution.save.self_s", "s"),
    ("distribution.save.bytes", "B"),
    ("distribution.to_dict.self_s", "s"),
    ("strings.strings_of_length.calls", "count"),
    ("strings.strings_of_length.self_s", "s"),
    ("jsonio.write_json.self_s", "s"),
    ("identify.identify.self_s", "s"),
    ("identify.loop_iterations", "count"),
    ("identify.loop_useful_ratio", "ratio"),
    ("identify.certify.self_s", "s"),
    ("identify.verdict_to_jsonable.self_s", "s"),
    ("finitary.infer_finitary.calls", "count"),
    ("finitary.infer_finitary.self_s", "s"),
    ("recover.recover_hmm.self_s", "s"),
    ("recover.outcome.recovered", "count"),
    ("recover.outcome.not_generic", "count"),
    ("recover.outcome.not_stochastic", "count"),
    ("hmp.full_distribution.calls", "count"),
    ("hmp.full_distribution.self_s", "s"),
    ("cli.main.self_s", "s"),
)
# derived from shapes and results rather than clocks; must repeat exactly
COMPUTED = ("hankel.numerical_rank.flops", "hankel.numerical_rank.useful_sv_ratio",
            "hankel.numerical_rank.cut_margin_min", "distribution.marginalize.bytes",
            "distribution.marginalize.useful_ratio", "identify.loop_useful_ratio")


def svd_flops(rows: int, cols: int) -> int:
    """Golub-Van Loan count for singular values only: 4 q p^2 - 4 p^3 / 3."""
    p, q = min(rows, cols), max(rows, cols)
    return (12 * q * p * p - 4 * p ** 3) // 3


class Tracer:
    def __init__(self):
        import hmpident
        from hmpident import tolerances
        self._pkg = hmpident
        self._default_tol = tolerances.DEFAULT_TOLERANCES
        self.spans = []      # [name, start, end, parent, instance, child_time]
        self._open = []
        self.instance = None
        self.counts = Counter()
        self.cut_margin_min = math.inf
        self._marginals = set()
        self._max_states = None
        self._restore = []

    # -- spans --------------------------------------------------------------
    def enter(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.instance, 0.0])

    def exit(self):
        end = time.perf_counter()
        span = self.spans[self._open.pop()]
        span[2] = end
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def call(self, name, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, args, kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- counters computed at the layer boundaries --------------------------
    def _before_identify(self, args, kwargs):
        max_states = kwargs.get("max_states", args[1] if len(args) > 1 else None)
        self._max_states = max_states or (args[0].n + 1) // 2

    def _after_identify(self, verdict, args, kwargs):
        self.counts["identify.loop_iterations"] += len(verdict.trace)
        self.counts["identify.loop_useful"] += sum(
            not entry.note.startswith("rank pattern not met") for entry in verdict.trace)

    def _after_rank(self, report, args, kwargs):
        rows, cols = np.shape(args[0])
        self.counts["hankel.numerical_rank.flops"] += svd_flops(rows, cols)
        sigma = report.singular_values
        self.counts["sv_total"] += sigma.size
        keep = sigma.size if self._max_states is None else min(sigma.size, self._max_states + 1)
        self.counts["sv_useful"] += keep
        self.counts["hankel.numerical_rank.borderline"] += not report.confident
        tol = kwargs.get("tol", args[1] if len(args) > 1 else None) or self._default_tol
        tau = tol.rel_rank_tol * float(sigma[0])
        positive = sigma[sigma > 0]
        if tau > 0 and positive.size:
            margin = float(np.min(np.maximum(positive / tau, tau / positive)))
            self.cut_margin_min = min(self.cut_margin_min, margin)

    def _after_marginalize(self, marg, args, kwargs):
        dist, m = args[0], args[1]
        self.counts["distribution.marginalize.bytes"] += dist.table.nbytes + marg.nbytes
        self._marginals.add((self.instance, dist.n, m))

    def _after_recover(self, outcome, args, kwargs):
        self.counts["recover.outcome." + outcome.kind] += 1

    def _after_load(self, dist, args, kwargs):
        self.counts["distribution.load.bytes"] += os.path.getsize(args[0])

    def _after_save(self, result, args, kwargs):
        self.counts["distribution.save.bytes"] += os.path.getsize(args[1])

    # -- installation -------------------------------------------------------
    def install(self):
        hooks = {
            "identify.identify": (self._before_identify, self._after_identify),
            "hankel.numerical_rank": (None, self._after_rank),
            "distribution.marginalize": (None, self._after_marginalize),
            "recover.recover_hmm": (None, self._after_recover),
            "distribution.load": (None, self._after_load),
            "distribution.save": (None, self._after_save),
        }
        modules = [m for key, m in sys.modules.items()
                   if key == "hmpident" or key.startswith("hmpident.")]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules["hmpident." + module_name], attr)
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        cls = self._pkg.StringDistribution
        for attr, name in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reporting ----------------------------------------------------------
    def self_times(self):
        calls, self_s = Counter(), defaultdict(float)
        for name, start, end, _parent, _inst, child in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child
        return calls, self_s

    def layer_metrics(self) -> dict:
        calls, self_s = self.self_times()
        c = self.counts
        values = {}
        for name, _unit in LAYER_METRICS:
            layer, _, stat = name.rpartition(".")
            if stat == "calls":
                values[name] = calls[layer]
            elif stat == "self_s":
                values[name] = self_s[layer]
            else:
                values[name] = c[name]
        values["hankel.numerical_rank.useful_sv_ratio"] = (
            c["sv_useful"] / c["sv_total"] if c["sv_total"] else 0.0)
        values["hankel.numerical_rank.cut_margin_min"] = (
            self.cut_margin_min if math.isfinite(self.cut_margin_min) else 0.0)
        marg_calls = calls["distribution.marginalize"]
        values["distribution.marginalize.useful_ratio"] = (
            len(self._marginals) / marg_calls if marg_calls else 0.0)
        iterations = c["identify.loop_iterations"]
        values["identify.loop_useful_ratio"] = (
            c["identify.loop_useful"] / iterations if iterations else 0.0)
        return values

    def self_time_sum(self) -> float:
        return sum(self.self_times()[1].values())

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, inst, _child in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")
