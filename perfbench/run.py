#!/usr/bin/env python3
"""Benchmark for growthlab: run one workload at one seed, check every output,
print every metric.

    python3 perfbench/run.py --workload abelian-batch --seed 0 --seconds 57 --trace 0

Run from the repository root; the library is imported from ./src in this
process, with one worker.

--trace 0 sets the workload up SETUP_REPS times (setup_s is the median),
then runs as many full passes as fit in --seconds (at least one) and
reports the end-to-end metrics over those passes.  --trace 1
runs the kernel micro-loop, one untraced pass and one traced pass, and
reports the per-layer metrics (see tracing.py).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The full result with
its provenance, and the spans of a traced pass, go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import checks  # noqa: E402  (siblings of this script)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 15

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("scenario_p50_s", "s"),
    ("scenario_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "ratio"),
)


def setup(workload: str, seed: int):
    """Import growthlab afresh and build the workload's scenario list."""
    for name in [n for n in sys.modules if n == "growthlab" or n.startswith("growthlab.")]:
        del sys.modules[name]
    gl = importlib.import_module("growthlab")
    return gl, WORKLOADS[workload](gl, seed)


@dataclass
class Pass:
    seconds: float
    latencies: dict[str, float]  # seconds per passed scenario
    attempted: int
    failed: int
    digest: str
    texts: list[str]
    wrong: set[str]  # scenarios whose output failed the check
    notes: list[str]
    aborts: list[dict]


def _scenario_op(exc: BaseException) -> str:
    """The scenario op that was running when `exc` was raised."""
    ops = [f.name[len("_op_"):] for f in traceback.extract_tb(exc.__traceback__)
           if f.name.startswith("_op_")]
    return ops[0] if ops else "generate"


def run_pass(gl, workload, seed, scenarios, expected, tracer=None) -> Pass:
    """Run every scenario once, serialise its report, then check the outputs.

    A BudgetExceeded (which run_scenario re-raises) or any other library
    error escaping a scenario is contained here: the scenario is recorded
    and all of its records count as failed, and the pass carries on.
    """
    texts, records, lat, aborted, aborts = [], {}, [], set(), []
    t0 = time.perf_counter()
    for sc in scenarios:
        if tracer is not None:
            tracer.scenario = sc.name
        s0 = time.perf_counter()
        try:
            rep = gl.run_scenario(sc)
            text = rep.to_json()
            records[sc.name] = rep.records
        except gl.GrowthLabError as e:
            info = {"scenario": sc.name, "op": _scenario_op(e), "error": f"{type(e).__name__}: {e}"}
            if isinstance(e, gl.BudgetExceeded):
                info.update(needed=e.needed, budget=e.budget)
            aborts.append(info)
            aborted.add(sc.name)
            records[sc.name] = []
            text = json.dumps(info, sort_keys=True) + "\n"
        lat.append(time.perf_counter() - s0)
        texts.append(text)
    if tracer is not None:
        tracer.scenario = None
    wrong, notes, digest = checks.check_pass(gl, workload, seed, expected, scenarios, texts, records)
    seconds = time.perf_counter() - t0

    attempted = failed = 0
    passed_lat = {}
    for sc, dt in zip(scenarios, lat):
        n = len(sc.ops)
        attempted += n
        if sc.name in aborted or sc.name in wrong:
            failed += n
            continue
        bad = sum(1 for r in records[sc.name] if not r.get("passed"))
        failed += bad
        if not bad:
            passed_lat[sc.name] = dt
    return Pass(seconds, passed_lat, attempted, failed, digest, texts, wrong, notes, aborts)


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples): the highest integer percentile with at
    least ten samples beyond it (nearest rank); the slowest sample when
    there are fewer than 11."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100, n
    q = 100 * (n - 10) // n
    return xs[math.ceil(q * n / 100) - 1], q, n


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "package.src_lines": src_lines(),
    }


def timed_run(args, expected) -> tuple[dict, list[Pass], list[str]]:
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        gl, scenarios = setup(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
        gc.collect()  # free the replaced module copies, so they stay out of peak_rss_mb
    # Start another pass only if one as long as the last still fits, so a
    # run measures for at most about --seconds.
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].seconds <= args.seconds:
        p = run_pass(gl, args.workload, args.seed, scenarios, expected)
        print(f"pass {len(passes) + 1}: {p.seconds:.3f} s, {p.failed}/{p.attempted} records failed",
              flush=True)
        passes.append(p)

    # A scenario's latency, like pass_s, is its mean over the run's passes:
    # with a handful of passes per run the mean is steadier than the median
    # (measured in NOTES.md).  A run in which no scenario passed every pass
    # has no latency sample but the pass time.
    pass_s = statistics.mean(p.seconds for p in passes)
    passed = [n for n in passes[0].latencies if all(n in p.latencies for p in passes)]
    per_scenario = [statistics.mean(p.latencies[n] for p in passes) for n in passed]
    per_scenario = per_scenario or [pass_s]
    tail_s, q, n = tail(per_scenario)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "scenario_p50_s": statistics.median(per_scenario),
        "scenario_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passed_share": 1 - failed / attempted,
    }
    info = [
        f"setup: {SETUP_REPS} set-ups, {len(scenarios)} scenarios",
        f"scenario_tail_s is p{q} of {n} passed scenarios (each the mean of {len(passes)} passes)"
        + (" (fewer than 11: the slowest)" if n < 11 else ""),
        f"failed_share = {failed}/{attempted} = {failed / attempted:.4f}",
    ]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return metrics, passes, info


def traced_run(args, expected) -> tuple[dict, list[Pass], list[str]]:
    gl, scenarios = setup(args.workload, args.seed)
    kernel = tracing.kernel_timings(gl)
    plain = run_pass(gl, args.workload, args.seed, scenarios, expected)
    print(f"untraced pass: {plain.seconds:.3f} s", flush=True)
    tracer = tracing.Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        traced = run_pass(gl, args.workload, args.seed, scenarios, expected, tracer)
    finally:
        tracer.uninstall()
    print(f"traced pass: {traced.seconds:.3f} s, {len(tracer.spans)} spans", flush=True)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_spans(spans_path, origin)

    metrics = tracer.metrics(kernel, traced.seconds / plain.seconds - 1, src_lines())
    info = [f"kernel {tag}: mul {k['mul_ns']:.1f} ns, inv {k['inv_ns']:.1f} ns, "
            f"median of {tracing.KERNEL_REPEATS} loops of {k['ops']} ops" for tag, k in kernel.items()]
    info.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics, [plain, traced], info


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=57.0, help="time to measure (--trace 0 only)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "growthlab" / "__init__.py").is_file():
        print(f"error: growthlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = checks.load_expected(args.workload)
    run = traced_run if args.trace else timed_run
    metrics, passes, info = run(args, expected)

    notes = [n for p in passes for n in p.notes]
    if not expected:
        notes.append(f"no frozen digests for {args.workload} in {checks.EXPECTED.name}")
    if len({p.digest for p in passes}) > 1:
        notes.append("passes of one run (traced or not) produced different reports")
    correct = not notes  # every wrong scenario, golden or acceptance mismatch leaves a note
    aborts = passes[0].aborts
    result = {
        "correct": correct,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    prov = provenance(args)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for line in info:
        print(line)
    for a in aborts:
        print(f"aborted: {json.dumps(a, sort_keys=True)}")
    for n in notes[:20]:
        print(f"check: {n}")
    print(f"output check: {'ok' if correct else 'FAILED'} (pass digest {passes[0].digest})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": prov, "pass_seconds": [p.seconds for p in passes],
                    "notes": notes, "aborts": aborts}, indent=2) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
