#!/usr/bin/env python3
"""Time whole passes of one benchmark workload on two library trees, alternating.

Usage:  python3 scripts/paired_passes.py BASE_SRC CHANGE_SRC --workload W --seed N --rounds R

e.g.    python3 scripts/paired_passes.py ../base/src src --workload finite-nilpotent --seed 1 --rounds 100

BASE_SRC and CHANGE_SRC are directories that each hold a `growthlab`
package (a checkout's `src`).  Both are loaded into this one process under
distinct package names, and each builds the workload's scenario list from
perfbench/workloads.py, which is only read.  Each round runs one pass on
each side, and the side that goes first alternates from round to round, so
a slow or fast spell of the machine falls on both sides alike.  A pass runs
every scenario once and serialises its report, as a benchmark pass does; a
scenario that raises a library error counts with its error text.

Prints each side's median pass time with its quartiles, the median of the
per-round ratios change/base with their quartiles, the share of rounds the
change won, the five scenarios with the highest base median latency (each
side's median and their ratio), and whether the two sides' reports were
identical in every round.  Exit 2 means bad arguments.
"""
import argparse
import gc
import hashlib
import importlib.util
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no bytecode cache in either tree


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def load_tree(src: pathlib.Path, name: str):
    """The `growthlab` package under `src`, imported as the package `name`."""
    init = src / "growthlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def one_pass(gl, scenarios) -> tuple[float, str, list[float]]:
    """Seconds for one pass, a digest of its report texts, and each
    scenario's seconds."""
    gc.collect()
    texts, latencies = [], []
    t0 = time.perf_counter()
    for sc in scenarios:
        ts = time.perf_counter()
        try:
            texts.append(gl.run_scenario(sc).to_json())
        except gl.GrowthLabError as e:
            texts.append(f"{type(e).__name__}: {e}\n")
        latencies.append(time.perf_counter() - ts)
    seconds = time.perf_counter() - t0
    return seconds, hashlib.sha256("".join(texts).encode()).hexdigest(), latencies


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    workloads = _load_workloads()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base_src", type=pathlib.Path)
    ap.add_argument("change_src", type=pathlib.Path)
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"--seed must be at least 0, got {args.seed}")
    if args.rounds < 1:
        ap.error(f"--rounds must be at least 1, got {args.rounds}")
    for src in (args.base_src, args.change_src):
        if not (src / "growthlab" / "__init__.py").is_file():
            ap.error(f"{src} holds no growthlab package")

    sides = {}
    for side, src in (("base", args.base_src), ("change", args.change_src)):
        gl = load_tree(src.resolve(), f"growthlab_{side}")
        sides[side] = (gl, workloads[args.workload](gl, args.seed))
    times = {"base": [], "change": []}
    latencies = {"base": [], "change": []}  # one list of per-scenario seconds per round
    differ = 0
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        digests = {}
        for side in order:
            seconds, digests[side], per_scenario = one_pass(*sides[side])
            times[side].append(seconds)
            latencies[side].append(per_scenario)
        differ += digests["base"] != digests["change"]

    n = len(sides["base"][1])
    print(f"{args.workload} seed {args.seed}: {n} scenarios, {args.rounds} rounds of one pass per side")
    for side in ("base", "change"):
        q1, med, q3 = quartiles(times[side])
        print(f"{side:>6} pass_s median {med:.4f} [q1 {q1:.4f}, q3 {q3:.4f}]")
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    q1, med, q3 = quartiles(ratios)
    print(f"change/base ratio median {med:.3f} [q1 {q1:.3f}, q3 {q3:.3f}]")
    won = sum(x < 1 for x in ratios)
    print(f"change faster in {won} of {args.rounds} rounds ({won / args.rounds:.0%})")
    medians = {side: [statistics.median(col) for col in zip(*latencies[side])] for side in latencies}
    names = [sc.name for sc in sides["base"][1]]
    slowest = sorted(range(n), key=lambda i: medians["base"][i], reverse=True)[:5]
    for i in slowest:
        b, c = medians["base"][i], medians["change"][i]
        print(f"scenario {names[i]} base median {b:.4f} change median {c:.4f} ratio {c / b:.3f}")
    print("reports identical in every round" if not differ else f"reports differ in {differ} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
