#!/usr/bin/env python3
"""Freeze the report digests that the benchmark's output check compares to.

    python3 perfbench/freeze.py [WORKLOAD ...]

Runs each named workload (default: all) once at its default seed 0 and
records, in perfbench/expected.json, the digest of every scenario's report
keyed by the scenario's recipe and ops, plus the digest of the whole pass.
It refuses to freeze a pass that fails the golden-file or acceptance-number
checks.  Re-freeze only when a change is meant to alter answers (for
example a fix for one of the known defects in NOTES.md), and say so.
heisenberg-free takes about two minutes.
"""
import json
import sys

import checks
import run

DEFAULT_SEED = 0


def main(argv) -> int:
    names = argv or sorted(run.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    frozen = json.loads(checks.EXPECTED.read_text()) if checks.EXPECTED.is_file() else {}
    for name in names:
        gl, scenarios = run.setup(name, DEFAULT_SEED)
        p = run.run_pass(gl, name, DEFAULT_SEED, scenarios, {})
        if p.wrong:
            print(f"{name}: not frozen, outputs fail the checks: {p.notes[:5]}", file=sys.stderr)
            return 1
        frozen[name] = {
            "seed": DEFAULT_SEED,
            "records": p.attempted,
            "failed": p.failed,
            "pass_digest": p.digest,
            "scenarios": {checks.scenario_key(sc): checks.digest(t) for sc, t in zip(scenarios, p.texts)},
        }
        print(f"{name}: {len(scenarios)} scenarios, {p.failed}/{p.attempted} failed records, "
              f"pass digest {p.digest}, {p.seconds:.1f} s")
    checks.EXPECTED.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
