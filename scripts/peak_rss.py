"""Wall time and peak RSS of identify and certify on a six-state HMP table.

Run from the root of a checkout; the package is imported from ./src:

    python3 scripts/peak_rss.py N [N ...]

For each N a fresh process builds full_distribution(random_stochastic(6, 1), N),
then runs identify and certify on it, and prints one line: the wall time of
each, and the process's peak RSS (ru_maxrss) before identify, after it and
after certify.  The exit status is non-zero when a verdict is not hmp on 6
states or certify fails.
"""
import resource
import subprocess
import sys
import time
from pathlib import Path


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # ru_maxrss is in KiB


def measure(n: int) -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import hmpident as hi

    dist = hi.full_distribution(hi.random_stochastic(6, 1), n)
    before = peak_mb()
    start = time.perf_counter()
    verdict = hi.identify(dist)
    identify_s = time.perf_counter() - start
    after_identify = peak_mb()
    start = time.perf_counter()
    report = hi.certify(dist, verdict) if verdict.kind == hi.HMP else None
    certify_s = time.perf_counter() - start
    print(f"n={n} verdict={verdict.kind} states={verdict.states} "
          f"identify_s={identify_s:.3f} certify_s={certify_s:.3f} "
          f"peak_mb_before={before:.1f} peak_mb_identify={after_identify:.1f} "
          f"peak_mb_certify={peak_mb():.1f}", flush=True)
    return 0 if report is not None and report.passed and verdict.states == 6 else 1


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "--one":
        return measure(int(argv[1]))
    if not argv or not all(arg.isdigit() for arg in argv):
        sys.exit("usage: python3 scripts/peak_rss.py N [N ...]")
    status = 0
    for n in argv:
        # a fresh process per N, so each peak is its own
        status |= subprocess.run([sys.executable, __file__, "--one", n]).returncode
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
