"""Output checks: a pass counts only if its answers are the known answers.

Three independent checks, each naming the scenarios it found wrong:

* every scenario whose recipe and ops appear in ``expected.json`` must
  serialise to the frozen report digest (all scenarios at the default seed,
  seed-free scenarios such as balls and intervals at every seed), and the
  concatenated report bytes of a default-seed pass must match the frozen
  pass digest;
* at seed 0, abelian-batch must reproduce ``tests/golden/chain_report.json``
  and ``tests/golden/oracle_densities.json`` (read, never written);
* heisenberg-free must reproduce the acceptance numbers of the free
  Heisenberg decomposition and its two corollary covers.
"""
from __future__ import annotations

import hashlib
import json
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
GOLDEN = HERE.parent / "tests" / "golden"

ACCEPTANCE = {
    "decompose": {"size_H": 1, "radius_P": 135, "rank_final": 15, "delta": "516468/5"},
    "ruzsa": {"x_size": 1, "rank": 30},
    "chang": {"t": 1, "stage_sizes": [1], "rank": 31},
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scenario_key(sc) -> str:
    return digest(json.dumps(sc.to_obj(), sort_keys=True))


def load_expected(workload: str) -> dict:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text()).get(workload, {})


def _golden_mismatches(gl, records: dict[str, list[dict]]) -> tuple[set, list[str]]:
    bad, notes = set(), []
    chain = [n for n in records if n.startswith("chain-")]
    try:
        chain_text = (GOLDEN / "chain_report.json").read_text()
        densities = json.loads((GOLDEN / "oracle_densities.json").read_text())
    except OSError as e:
        return set(records), [f"golden file unreadable: {e}"]
    got = gl.Report("chain", [r for n in chain for r in records[n]]).to_json()
    if got != chain_text:
        bad.update(chain)
        notes.append("chain report differs from tests/golden/chain_report.json")
    for name, want in densities.items():
        oracle = [r for r in records.get(name, ()) if r.get("op") == "oracle"]
        if len(oracle) != 1 or oracle[0].get("density") != want:
            bad.add(name)
            notes.append(f"{name}: oracle density differs from golden {want}")
    return bad, notes


def _acceptance_mismatches(records: dict[str, list[dict]]) -> tuple[set, list[str]]:
    bad, notes = set(), []
    for name, recs in records.items():
        by_op = {r.get("which", r.get("op")): r for r in recs}
        for op, want in ACCEPTANCE.items():
            got = {k: by_op.get(op, {}).get(k) for k in want}
            if got != want:
                bad.add(name)
                notes.append(f"{name} {op}: got {got}, acceptance numbers are {want}")
    return bad, notes


def check_pass(gl, workload: str, seed: int, expected: dict, scenarios, texts, records):
    """Return (names of scenarios with wrong output, notes, pass digest).

    `texts[i]` is the serialised report of `scenarios[i]` and `records`
    maps each scenario name to its report records.
    """
    bad, notes = set(), []
    frozen = expected.get("scenarios", {})
    for sc, text in zip(scenarios, texts):
        want = frozen.get(scenario_key(sc))
        if want is not None and want != digest(text):
            bad.add(sc.name)
            notes.append(f"{sc.name}: report digest {digest(text)} != frozen {want}")
    pass_digest = digest("".join(texts))
    if seed == expected.get("seed") and pass_digest != expected.get("pass_digest"):
        notes.append(f"pass digest {pass_digest} != frozen {expected.get('pass_digest')}")
        if not bad:
            bad.update(sc.name for sc in scenarios)
    if workload == "abelian-batch" and seed == 0:
        b, n = _golden_mismatches(gl, records)
        bad |= b
        notes += n
    if workload == "heisenberg-free":
        b, n = _acceptance_mismatches(records)
        bad |= b
        notes += n
    return bad, notes, pass_digest
