#!/usr/bin/env python3
"""Bisect the least element budget at which one operation succeeds.

Usage:  python3 scripts/least_budget.py RECIPE --op decompose|corollary:ruzsa|corollary:chang
        python3 scripts/least_budget.py RECIPE --op slice:M,N --by RECIPE_B

e.g.    python3 scripts/least_budget.py random-symmetric ut:3:3 size=5 seed=0 --op decompose
        python3 scripts/least_budget.py ball ut:3:5 radius=1 --op slice:3,2 \
            --by random-symmetric ut:3:5 size=7 seed=1203

The recipe's set is certified by `greedy_cover_certificate`, and for a
corollary decomposed, at the default budget; for `slice:M,N` (the slicing
cover of A^M ∩ B^N) B's set is built and certified greedily at the default
budget too.  Only the named op runs under the budgets tried.  The op fails
at a budget when it raises BudgetExceeded there.  The least budget b at
which it succeeds is found by bisection over [1, default], on the
assumption that a larger budget never fails where a smaller one succeeds.
The script then checks that the op's result at b equals its result at the
default budget, and prints b.

Run from anywhere; the library is imported from ./src and left unwritten.
Exit 1 means the op fails at the default budget or gives another result at
b; exit 2 means bad arguments (an unknown op, a malformed recipe, --by
missing for a slice or given for another op).
"""
import argparse
import pathlib
import re
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
    slicing_cover,
)
from growthlab.config import resolve_budget  # noqa: E402

OPS = ("decompose", "corollary:ruzsa", "corollary:chang", "slice:M,N")


def _op_name(text: str) -> str:
    """An op of OPS, with slice:M,N for any integers M, N >= 1."""
    if text.startswith("slice:"):
        if not re.fullmatch(r"slice:[1-9][0-9]*,[1-9][0-9]*", text):
            raise argparse.ArgumentTypeError(f"slice needs two powers of at least 1, e.g. slice:3,2; got {text!r}")
    elif text not in OPS:
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {', '.join(OPS)})")
    return text


def _op(name: str, cert, B):
    """The op as a function of the budget, returning a comparable result."""
    if name == "decompose":
        return lambda budget: decompose(cert, budget).to_report()
    if name.startswith("slice:"):
        m, n = map(int, name.partition(":")[2].split(","))
        certB = greedy_cover_certificate(B)

        def slice_(budget):
            sc = slicing_cover(cert, certB, m, n, budget)
            return sc.translates.sorted_members(), len(sc.target), len(sc.core), sc.bound

        return slice_
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
    ap.add_argument("--op", required=True, type=_op_name, help=f"one of: {', '.join(OPS)}")
    ap.add_argument("--by", nargs="+", help="recipe for B (slice:M,N only)")
    args = ap.parse_args()
    if args.op.startswith("slice:") != (args.by is not None):
        ap.error("--by is needed for slice:M,N and for no other op")
    try:
        top = resolve_budget(None)
        A = generate_example(" ".join(args.recipe), top)
        B = generate_example(" ".join(args.by), top) if args.by else None
    except GrowthLabError as e:
        ap.error(str(e))
    try:
        run = _op(args.op, greedy_cover_certificate(A), B)
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
