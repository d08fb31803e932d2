"""Probability distributions over binary strings of a fixed length.

The table is stored as a flat numpy array of length 2^n indexed by the string
read as a base-2 integer, so index order equals lexicographic order within the
fixed length.  Construction only enforces shape and clamps tiny negative
noise; the numeric invariants (entry range, unit sum) are checked separately
by validate() so that intermediate tables, e.g. perturbed controls, can be
built and inspected without passing validation first.

A shorter string's probability is defined as p(u) = p(u0) + p(u1): every
prefix marginal is the table with its last symbol summed out one step at a
time.  That summation order is part of the definition, so the identity holds
bit for bit between consecutive lengths.  marginals() carries it out once for
every length; marginalize() and every Hankel block read from that list.
"""
from __future__ import annotations

import json
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (LengthError, MissingKeyError, NegativeEntryError,
                     EntryOutOfRangeError, NonFiniteError, SumNotOneError, check_order)
from .jsonio import write_json
from .strings import check_binary, string_index, string_name, strings_of_length
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig


@dataclass(frozen=True)
class StringDistribution:
    """The 2^n-entry table of a distribution over binary strings of length n.

    table is a read-only float64 array.  A 1-D read-only float64 table with
    no negative entry is kept as given, not copied, so its owner must not
    write to it through another view; full_distribution and
    load_distribution hand over their fresh arrays that way.  Any other table
    (writable, not float64, or with an entry to clamp) is copied first."""
    n: int
    table: np.ndarray
    tol: InitVar[ToleranceConfig | None] = None

    def __post_init__(self, tol):
        tol = tol or DEFAULT_TOLERANCES
        check_order("n", self.n, 1)
        try:
            raw = np.asarray(self.table)
        except ValueError:   # numpy refuses a ragged nesting
            raise MissingKeyError(f"table must be a flat array of 2^{self.n} entries, "
                                  "got a ragged nesting") from None
        if raw.shape != (2 ** self.n,):
            raise MissingKeyError(
                f"table must have exactly 2^{self.n} entries, got shape {raw.shape}")
        if raw.dtype.kind not in "iuf":   # a cast would drop imaginary parts or parse text
            raise NonFiniteError(f"table entries must be real numbers, got dtype {raw.dtype}")
        if raw.dtype == np.float64 and not raw.flags.writeable and not raw.min() < 0.0:
            table = raw   # nothing to clamp, and no one writes to it through this array
        else:
            table = raw.astype(float)
            # floating-point noise from upstream arithmetic, not a real sign violation
            table[(table >= -tol.tol_entry) & (table < 0.0)] = 0.0
            table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def prob(self, v: str) -> float:
        check_binary(v)
        if len(v) != self.n:
            raise LengthError(f"expected a string of length {self.n}, got {v!r}")
        return float(self.table[string_index(v)])

    def to_dict(self) -> dict:
        return {v: float(self.table[i]) for i, v in enumerate(strings_of_length(self.n))}

    @classmethod
    def from_dict(cls, n: int, probabilities: dict,
                  tol: ToleranceConfig | None = None) -> "StringDistribution":
        check_order("n", n, 1)
        if not isinstance(probabilities, dict):
            raise MissingKeyError(f"probabilities is a {type(probabilities).__name__}, not a dict")
        count = len(probabilities)
        if count.bit_length() != n + 1 or count != 2 ** n:   # a huge n allocates nothing
            raise MissingKeyError(f"expected 2^{n} keys, got {count}")
        # 2^n distinct binary keys of length n hit every index exactly once
        table = np.empty(2 ** n)
        for key, p in probabilities.items():
            if not isinstance(key, str) or len(key) != n or key.strip("01"):
                raise MissingKeyError(f"unexpected key {key!r} for length {n}")
            if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)):
                raise NonFiniteError(f"p({key}) = {p!r} is not a number")
            try:
                table[int(key, 2)] = p
            except OverflowError:   # an integer literal beyond the largest double
                raise NonFiniteError(f"p({key}) is an integer too large for a double") from None
        table.setflags(write=False)
        return cls(n, table, tol)


def validate(dist: StringDistribution, tol: ToleranceConfig | None = None):
    """Check entry range and unit sum; raise the first violated invariant.
    The entries are screened by their min and max (a NaN fails both), and
    only a table that fails the screen is scanned check by check."""
    tol = tol or DEFAULT_TOLERANCES
    table = dist.table
    if not (table.min() >= -tol.tol_entry and table.max() <= 1.0 + tol.tol_entry):
        for bad, error, what in ((~np.isfinite(table), NonFiniteError, "is not finite"),
                                 (table < -tol.tol_entry, NegativeEntryError, "is negative"),
                                 (table > 1.0 + tol.tol_entry, EntryOutOfRangeError, "exceeds 1")):
            if bad.any():
                i = int(np.argmax(bad))
                raise error(f"p({string_name(i, dist.n)}) = {table[i]} {what}")
    total = float(table.sum())
    if abs(total - 1.0) > tol.tol_sum:
        raise SumNotOneError(f"table sums to {total}, not 1")


def marginals(dist: StringDistribution) -> list:
    """The prefix marginals of lengths 0..n, indexed by length: the read-only
    table itself at n, and each shorter one the next with its last symbol
    summed out, p(u) = p(u0) + p(u1), a flat array of size 2^length."""
    margs = [dist.table]
    for _ in range(dist.n):
        margs.append(margs[-1][0::2] + margs[-1][1::2])
    return margs[::-1]


def marginalize(dist: StringDistribution, m: int) -> np.ndarray:
    """Length-m prefix marginal p(u) = sum_w p(uw): marginals(dist)[m]."""
    check_order("m", m, 0, dist.n)
    return marginals(dist)[m]


def prefix_probability(dist: StringDistribution, u: str) -> float:
    """p(u) for any u with len(u) <= n."""
    check_binary(u)
    if len(u) > dist.n:
        raise LengthError(f"prefix longer than table strings: {u!r}")
    return float(marginalize(dist, len(u))[string_index(u)])


def is_stationary(dist: StringDistribution, tol: ToleranceConfig | None = None) -> bool:
    """Whether summing out the last symbol equals summing out the first.

    For every v of length n-1 this compares sum_a p(va) with sum_a p(av); a
    distribution sampled from a stationary process balances the two.
    """
    tol = tol or DEFAULT_TOLERANCES
    if dist.n < 2:
        raise LengthError("stationarity balance needs n >= 2")
    drop_last = marginalize(dist, dist.n - 1)
    drop_first = dist.table.reshape(2, -1).sum(axis=0)
    return float(np.max(np.abs(drop_last - drop_first))) <= tol.tol_stat


def save_distribution(dist: StringDistribution, path):
    """Write {"n": n, "table": [p_0, ..., p_(2^n-1)]}, entries in index order."""
    write_json({"n": dist.n, "table": dist.table}, path)


def load_distribution(path, tol: ToleranceConfig | None = None) -> StringDistribution:
    """Read what save_distribution writes, or the older {"n", "probabilities"}
    file that maps each string to its probability."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "n" not in payload \
            or ("table" not in payload and "probabilities" not in payload):
        raise MissingKeyError("distribution JSON needs 'n' and 'table' "
                              "(or the older 'probabilities')")
    n = payload["n"]
    if "table" not in payload:
        return StringDistribution.from_dict(n, payload["probabilities"], tol)
    entries = payload["table"]
    check_order("n", n, 1)
    if not isinstance(entries, list):
        raise MissingKeyError(f"table is a {type(entries).__name__}, not a list")
    count = len(entries)
    if count.bit_length() != n + 1 or count != 2 ** n:   # a huge n allocates nothing
        raise MissingKeyError(f"expected 2^{n} entries, got {count}")
    if not set(map(type, entries)) <= {float, int}:   # exact types: a bool is an int
        i = next(i for i, p in enumerate(entries) if type(p) not in (float, int))
        raise NonFiniteError(f"p({string_name(i, n)}) = {entries[i]!r} is not a number")
    try:
        table = np.array(entries, dtype=float)
    except OverflowError:   # an integer literal beyond the largest double
        raise NonFiniteError("table has an integer entry too large for a double") from None
    table.setflags(write=False)   # handed over as it is, not copied
    return StringDistribution(n, table, tol)
