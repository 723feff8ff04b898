"""Acceptance battery: one test per headline guarantee, each with its
stated time limit measured on the spot.  Run `pytest -v tests/test_acceptance.py`
to get one pass/fail line per criterion.
"""
import json
import pathlib
import time
from fractions import Fraction

from growthlab import (
    Element,
    ProgressionSpec,
    chain_bound,
    corollary_covers,
    greedy_cover_certificate,
    growth_law,
    heisenberg,
    image_certificate,
    run_suite,
    verify_chain,
)
from growthlab.approx import PartialMap
from growthlab.groups import FiniteAbelian
from growthlab.recipes import generate_example

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _suite_all_green(name, limit_s, expect_records=None):
    t0 = time.monotonic()
    rep = run_suite(name)
    dt = time.monotonic() - t0
    assert dt < limit_s, f"{name} suite took {dt:.1f}s (limit {limit_s}s)"
    assert rep.failed == 0, [r for r in rep.records if not r["passed"]][:3]
    if expect_records is not None:
        assert len(rep.records) == expect_records
    return rep


def test_criterion_01_heisenberg_progression_chain():
    HZ = heisenberg(0)
    x, z = Element(HZ, (1, 0, 0)), Element(HZ, (0, 0, 1))
    t0 = time.monotonic()
    cert = verify_chain(ProgressionSpec((x, z), (1, 1)))
    dt = time.monotonic() - t0
    assert dt < 1.0, f"chain verification took {dt:.2f}s (limit 1s)"
    assert (cert.ordered_size, cert.word_size, cert.hull_size) == (9, 13, 27)
    assert cert.kstar == 3
    assert cert.kstar <= cert.theoretical_bound == chain_bound(2, 2)
    repeat = verify_chain(ProgressionSpec((x, z), (2, 2)))
    assert (repeat.ordered_size, repeat.word_size, repeat.hull_size) == (25, 87, 225)
    assert repeat.kstar == 3


def test_criterion_02_ruzsa_covers_hundred_seeded():
    rep = _suite_all_green("ruzsa", 30.0, expect_records=100)
    for r in rep.records:
        assert r["within_ratio"] and r["x_size"] <= r["ratio_bound"]


def test_criterion_03_chang_covers_fifty_seeded():
    rep = _suite_all_green("chang", 60.0)
    chang = [r for r in rep.records if r["op"] == "chang"]
    assert len(chang) == 50
    for r in chang:
        assert all(s <= r["cap"] for s in r["stage_sizes"])
        assert r["t"] <= r["t_bound"]


def test_criterion_04_iterated_sumset_growth_two_hundred():
    rep = _suite_all_green("plunnecke", 60.0, expect_records=200)
    for r in rep.records:
        assert r["all_within"] and r["checked"] > 0


def test_criterion_05_slicing_covers_fifty():
    rep = _suite_all_green("slicing", 60.0, expect_records=100)
    shapes = {(r["m"], r["n"]) for r in rep.records}
    assert shapes == {(2, 2), (3, 2)}
    for r in rep.records:
        assert r["within_bound"] and r["count"] <= r["bound"]


def test_criterion_06_twenty_mapped_certificates():
    rep = _suite_all_green("homs", 10.0, expect_records=20)
    for r in rep.records:
        assert r["centred"] and r["inverses_preserved"]
        assert r["K_image"] <= r["K_source"]


def test_criterion_07_sections_and_pullbacks_exhaustive():
    rep = _suite_all_green("sections", 10.0, expect_records=4)
    sections = {r["scenario"]: r for r in rep.records if r["op"] == "section"}
    assert sections["section-mod3"]["table_size"] == 9
    assert sections["section-mod3"]["pairs_checked"] == 81
    assert sections["section-mod5"]["table_size"] == 25
    assert sections["section-mod5"]["pairs_checked"] == 625
    for r in sections.values():
        assert r["defect1_ok"] and r["defect2_ok"]
    for r in rep.records:
        if r["op"] == "pullback":
            assert r["ok"]


def test_criterion_08_decompositions_three_ambients(pipeline_instances):
    expect = {
        "mod3": {"size_H": 27, "radius_P": 0, "rank_final": 3, "delta": "1"},
        "mod5": {"size_H": 125, "radius_P": 0, "rank_final": 3, "delta": "1"},
        "free": {
            "size_H": 1,
            "radius_P": 135,
            "rank_final": 15,
            "delta": "516468/5",
        },
    }
    for tag, inst in pipeline_instances.items():
        assert inst["seconds"] < 120.0, f"{tag} took {inst['seconds']:.1f}s"
        rep = inst["dec"].to_report()
        for key, val in expect[tag].items():
            assert rep[key] == val, (tag, key, rep[key])
        assert inst["dec"].H.is_normal is True
        assert inst["dec"].delta > 0


def test_criterion_09_covers_from_decompositions(pipeline_instances):
    expect = {
        "mod3": (1, 6, 1, [1], 7),
        "mod5": (1, 6, 1, [1], 7),
        "free": (1, 30, 1, [1], 31),
    }
    for tag, inst in pipeline_instances.items():
        t0 = time.monotonic()
        rz = corollary_covers(inst["dec"], inst["cert"], "ruzsa")
        ch = corollary_covers(inst["dec"], inst["cert"], "chang")
        dt = time.monotonic() - t0
        assert dt < 60.0, f"{tag} corollary covers took {dt:.1f}s"
        x_size, rz_rank, t, stages, ch_rank = expect[tag]
        assert len(rz.X) == x_size and rz.rank == rz_rank
        assert ch.t == t and list(ch.stage_sizes) == stages
        assert ch.rank == ch_rank


def test_criterion_10_abelian_oracle_fifty_with_golden_densities():
    rep = _suite_all_green("oracle", 120.0, expect_records=150)
    oracle_recs = {r["scenario"]: r for r in rep.records if r["op"] == "oracle"}
    assert len(oracle_recs) == 50
    for r in oracle_recs.values():
        assert r["inside_body"]
    for r in rep.records:
        if r["op"] == "sanders":
            assert r["k8_bound_ok"]
    golden = json.loads((GOLDEN / "oracle_densities.json").read_text())
    assert {k: v["density"] for k, v in oracle_recs.items()} == golden


def test_criterion_11_growth_law_on_every_certificate():
    recipes = [
        "interval ab:101 L=10",
        "interval ab:0 L=6",
        "ball ut:3:0 radius=1",
        "ball ut:3:3 radius=1",
        "ball ut:3:5 radius=2",
        "ball ab:7 radius=2",
        "progression ab:101 gens=3|5 bounds=4,4",
        "coset-union ab:12,12 sub=4,0|0,4 reps=1,0|0,1",
    ] + [f"random-symmetric ab:{n} size={s} seed={i}" for i, (n, s) in enumerate(
        [(101, 9), (101, 21), (61, 13), (43, 11), (127, 25), (97, 15)]
    )] + [f"random-symmetric ut:3:5 size={s} seed={i}" for i, s in enumerate((7, 9, 11))]
    certs = [greedy_cover_certificate(generate_example(r)) for r in recipes]
    # certificates of mapped images are covered by the same law
    A = generate_example("interval ab:101 L=10")
    ZZ = FiniteAbelian((0,))
    lift = PartialMap.from_function(
        A, ZZ, lambda a: Element(ZZ, (a.coords[0] - 101 if a.coords[0] > 50 else a.coords[0],))
    )
    certs.append(image_certificate(lift))
    for cert, src in zip(certs, recipes + ["lifted interval"]):
        rows = growth_law(cert, 5)
        assert len(rows) == 5
        for row in rows:
            assert row.within, (src, row.power, row.size, row.bound)
            assert row.size <= cert.K_upper ** (row.power - 1) * len(cert.aset)
