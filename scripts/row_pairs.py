#!/usr/bin/env python3
"""Count the kernel row pairs of one pass of a benchmark workload, by caller.

Usage:  python3 scripts/row_pairs.py --workload finite-nilpotent --seed 1

A row pair is one product a descriptor's row kernel computes:
`left_row(a, bs)` costs |bs| pairs and `right_row(as_, b)` costs |as_|.
Every backend's two row kernels are wrapped from outside.  A row that
another row computes on its behalf (a `QuotientView` row through its base, a
`ut:4` row through the generic one) is counted once, for the outer call.
Pairs are grouped by the library function that called the kernel, with
comprehensions and lambdas booked to the function around them.

Run from anywhere; the library is imported from ./src and the scenario
lists from perfbench/workloads.py, which is only read.  Exit 2 means bad
arguments.
"""
import argparse
import collections
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no bytecode cache beside workloads.py
sys.path.insert(0, str(ROOT / "src"))

import growthlab  # noqa: E402
from growthlab.groups import GroupDescriptor  # noqa: E402


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def _caller(frame) -> str:
    """module.function of the first frame that is not a comprehension or lambda."""
    while frame.f_code.co_name.startswith("<") and frame.f_back is not None:
        frame = frame.f_back
    module = frame.f_globals.get("__name__", "?").removeprefix("growthlab.")
    return f"{module}.{frame.f_code.co_qualname}"


def _descriptor_classes():
    out, todo = [], [GroupDescriptor]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def count_rows(run) -> collections.Counter:
    """Run `run()` with every row kernel wrapped; pairs per caller."""
    pairs = collections.Counter()
    depth = [0]

    def wrap(fn):
        def row(self, x, y):
            if depth[0]:
                return fn(self, x, y)
            depth[0] += 1
            try:
                out = fn(self, x, y)
            finally:
                depth[0] -= 1
            pairs[_caller(sys._getframe(1))] += len(out)
            return out

        return row

    undo = []
    for cls in _descriptor_classes():
        for name in ("left_row", "right_row"):
            if name in vars(cls):
                undo.append((cls, name, vars(cls)[name]))
                setattr(cls, name, wrap(vars(cls)[name]))
    try:
        run()
    finally:
        for cls, name, fn in undo:
            setattr(cls, name, fn)
    return pairs


def main() -> int:
    workloads = _load_workloads()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"--seed must be at least 0, got {args.seed}")
    scenarios = workloads[args.workload](growthlab, args.seed)

    def one_pass():
        for sc in scenarios:
            try:
                growthlab.run_scenario(sc)
            except growthlab.GrowthLabError:
                pass  # a scenario that runs out of budget still counts its rows

    pairs = count_rows(one_pass)
    total = sum(pairs.values())
    print(f"{args.workload} seed {args.seed}: {len(scenarios)} scenarios, one pass")
    print(f"{'pairs':>12}  {'share':>6}  caller")
    for caller, n in pairs.most_common():
        print(f"{n:12,d}  {n / max(total, 1):6.1%}  {caller}")
    print(f"{total:12,d}  {1:6.1%}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
