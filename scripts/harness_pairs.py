#!/usr/bin/env python3
"""Run the benchmark from two checkouts in turn and compare its end-to-end metrics.

Usage:  python3 scripts/harness_pairs.py BASE_TREE CHANGE_TREE --workload W --seed N --pairs P

e.g.    python3 scripts/harness_pairs.py ../base . --workload abelian-batch --seed 5 --pairs 10

BASE_TREE and CHANGE_TREE are checkouts (each with `perfbench/run.py` and
`src/growthlab`).  Each pair runs the command of this repository's
BENCHMARK.json, `perfbench/run.py --workload W --seed N --seconds 57
--trace 0` (57 is its `run_seconds`), once from each tree, in a fresh
process with that tree as its working directory; the side that goes first
alternates from pair to pair, so a slow or fast spell of the machine falls
on both sides alike.  Only BENCHMARK.json and each tree's perfbench/ are
read; each run writes its own perfbench/out/.

For every end-to-end metric of BENCHMARK.json it prints each side's median
with its quartiles, the ratio of the medians change/base, the pairs the
change won (lower is better, or higher, as the metric says; ties count for
neither), whether that is a gain (won in at least nine tenths of the pairs,
and the medians differ by more than the base's quartile spread) and whether
the change's median is worse than the base's by more than the metric's
bound, read as a fraction of the base median.

Exit 0 when every run printed `correct: true`, 1 when a run failed or printed
`correct: false`, 2 on bad arguments.
"""
import argparse
import json
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no bytecode cache beside the scripts
from paired_passes import quartiles  # noqa: E402  (this script's sibling)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(tree: pathlib.Path, command: list[str], args, seconds) -> dict | None:
    """The JSON object of the run's last stdout line, or None if it failed."""
    argv = command + ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(f"{tree}: last line is not JSON: {lines[-1][:200]}\n")
        return None


def worse_than_bound(base: float, change: float, better: str, bound: float) -> bool:
    if better == "lower":
        return change > base * (1 + bound)
    return change < base * (1 - bound)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base_tree", type=pathlib.Path)
    ap.add_argument("change_tree", type=pathlib.Path)
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"--seed must be at least 0, got {args.seed}")
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    trees = {"base": args.base_tree.resolve(), "change": args.change_tree.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "src" / "growthlab").is_dir():
            ap.error(f"{tree} holds no perfbench/run.py and src/growthlab")

    metrics = bench["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    failed = 0
    for p in range(args.pairs):
        order = ("base", "change") if p % 2 == 0 else ("change", "base")
        results = {side: run_once(trees[side], bench["command"], args, bench["run_seconds"]) for side in order}
        bad = [side for side, r in results.items() if r is None or r.get("correct") is not True]
        if bad:  # the pair is left out, so the sides stay paired
            failed += len(bad)
            print(f"pair {p + 1}/{args.pairs}: {' and '.join(bad)} failed or not correct", flush=True)
            continue
        for side, result in results.items():
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"pair {p + 1}/{args.pairs}, {order[0]} first: " + ", ".join(
            f"{side} pass_s {results[side]['metrics']['pass_s']['value']:.4f}" for side in ("base", "change")),
            flush=True)

    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {bench['run_seconds']:g}-s runs")
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        base, change = values["base"][name], values["change"][name]
        if not base or not change:
            print(f"{name}: no values")
            continue
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
        ratio = cmed / bmed if bmed else float("nan")
        paired = list(zip(base, change))
        won = sum((c < b) if better == "lower" else (c > b) for b, c in paired)
        ties = sum(c == b for b, c in paired)
        gain = won >= 0.9 * len(paired) and abs(cmed - bmed) > bq3 - bq1
        worse = worse_than_bound(bmed, cmed, better, bound)
        print(f"{name} ({better} is better, bound {bound:g}): "
              f"base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}], change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}], "
              f"ratio {ratio:.4f}, change won {won} of {len(paired)} pairs ({ties} ties), "
              f"{'a gain' if gain else 'no gain'}, "
              f"{'WORSE than its bound' if worse else 'within its bound'}")
    if failed:
        print(f"{failed} runs failed or were not correct")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
