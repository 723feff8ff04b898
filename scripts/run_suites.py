#!/usr/bin/env python3
"""Run every builtin suite and write one JSON report per suite.

Usage:  python3 scripts/run_suites.py [--jobs N] [--outdir reports]

The heavyweight suites (pipeline, reduction) run the torsion-free
decomposition, so a full pass takes about a minute; everything else
finishes in seconds.  Exit 1 means at least one record failed; exit 2 means
bad arguments (an unknown suite, --jobs below 1), refused before anything
runs or is written.
"""
import argparse
import pathlib
import sys
import time

from growthlab import SUITES, run_suite
from growthlab.textio import write_text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--suites", nargs="*", choices=sorted(SUITES), default=sorted(SUITES))
    args = ap.parse_args()
    if args.jobs < 1:
        ap.error(f"--jobs must be at least 1, got {args.jobs}")

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    for name in args.suites:
        t = time.time()
        rep = run_suite(name, jobs=args.jobs)
        dt = time.time() - t
        write_text(rep.to_json(), str(outdir / f"{name}.json"))
        status = "ok" if rep.failed == 0 else f"{rep.failed} FAILED"
        print(f"{name:12s} {len(rep.records):4d} records  {dt:6.1f}s  {status}")
        bad += rep.failed
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
