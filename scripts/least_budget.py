#!/usr/bin/env python3
"""Bisect the least element budget at which one operation succeeds.

Usage:  python3 scripts/least_budget.py RECIPE --op decompose|corollary:ruzsa|corollary:chang

e.g.    python3 scripts/least_budget.py random-symmetric ut:3:3 size=5 seed=0 --op decompose

The recipe's set is certified by `greedy_cover_certificate`, and for a
corollary decomposed, at the default budget; only the named op runs under
the budgets tried.  The op fails at a budget when it raises BudgetExceeded
there.  The least budget b at which it succeeds is found by bisection over
[1, default], on the assumption that a larger budget never fails where a
smaller one succeeds.  The script then checks that the op's result at b
equals its result at the default budget, and prints b.

Run from anywhere; the library is imported from ./src and left unwritten.
Exit 1 means the op fails at the default budget or gives another result at
b; exit 2 means bad arguments (an unknown op, a malformed recipe).
"""
import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no bytecode cache in src/
sys.path.insert(0, str(ROOT / "src"))

from growthlab import (  # noqa: E402
    BudgetExceeded,
    GrowthLabError,
    corollary_covers,
    decompose,
    generate_example,
    greedy_cover_certificate,
)
from growthlab.config import resolve_budget  # noqa: E402

OPS = ("decompose", "corollary:ruzsa", "corollary:chang")


def _op(name: str, cert):
    """The op as a function of the budget, returning a comparable result."""
    if name == "decompose":
        return lambda budget: decompose(cert, budget).to_report()
    dec = decompose(cert)
    which = name.partition(":")[2]

    def corollary(budget):
        rep = corollary_covers(dec, cert, which, budget)
        if which == "ruzsa":
            return rep.X.sorted_members(), rep.ratio_bound, rep.rank
        return rep.t, rep.stage_sizes, rep.rank

    return corollary


def least_budget(run, top: int) -> int:
    """Least b in [1, top] at which run(b) raises no BudgetExceeded."""
    lo, hi = 0, top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            run(mid)
        except BudgetExceeded:
            lo = mid
        else:
            hi = mid
    return hi


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("recipe", nargs="+")
    ap.add_argument("--op", required=True, choices=OPS)
    args = ap.parse_args()
    recipe = " ".join(args.recipe)
    try:
        top = resolve_budget(None)
        A = generate_example(recipe, top)
    except GrowthLabError as e:
        ap.error(str(e))
    try:
        run = _op(args.op, greedy_cover_certificate(A))
        expected = run(top)
    except GrowthLabError as e:
        print(f"{args.op} fails at the default budget {top}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    b = least_budget(run, top)
    if run(b) != expected:
        print(f"{args.op} at budget {b} differs from its result at {top}", file=sys.stderr)
        return 1
    print(b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
