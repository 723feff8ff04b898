"""The decomposition pipeline: abelianization, sections, fibres,
step reduction, the full recursion, and the two corollary covers."""
from fractions import Fraction

import pytest

from growthlab import (
    CertificateError,
    ContainmentError,
    Element,
    FiniteAbelian,
    GSet,
    NotAbelian,
    PipelineConfig,
    ProgressionSpec,
    QuotientView,
    Unitriangular,
    abelian_factorization,
    abelianization,
    build_section,
    containment_radius,
    corollary_covers,
    decompose,
    derived_subgroup,
    greedy_cover_certificate,
    heisenberg,
    in_cyclic,
    ordered_progression,
    power,
    pullback_check,
    quotient_project,
    step_reduction,
    word_radius_bound,
)
from growthlab.recipes import generate_example

H3 = heisenberg(3)
HZ = heisenberg(0)


def _ball(group):
    return generate_example(f"ball {group} radius=1")


def test_abelianization_of_heisenberg():
    proj = abelianization(H3)
    assert proj.codomain.moduli == (3, 3)
    img = proj.image(_ball("ut:3:3"))
    assert len(img) == 5
    a = proj.apply((1, 2, 1))
    b = proj.apply((1, 0, 1))
    assert a == b  # central coordinate dies


def test_in_cyclic():
    Z = FiniteAbelian((0,))
    assert in_cyclic(Z, (3,), (9,))
    assert not in_cyclic(Z, (3,), (10,))
    assert in_cyclic(Z, (0,), (0,))
    assert not in_cyclic(Z, (0,), (2,))
    Zn = FiniteAbelian((12,))
    assert in_cyclic(Zn, (8,), (4,))  # 2*8 = 16 = 4 mod 12
    assert not in_cyclic(Zn, (4,), (2,))
    # (1,0,0) has infinite order in ut:3:0 and (0,1,0) is not a power of it:
    # no power walk, an immediate error
    with pytest.raises(NotAbelian):
        in_cyclic(Unitriangular(3, 0), (1, 0, 0), (0, 1, 0))


def test_build_section_and_defects():
    A = generate_example("ball ut:3:3 radius=6")  # the full group
    q = QuotientView(H3, derived_subgroup(H3.generators()))
    sec = build_section(q, A)
    assert len(sec.table) == 9
    # section really is a section: reduce(apply(x)) == x
    for x in sec.table:
        assert q.reduce(sec.apply(x)) == x


def test_build_section_rejects_foreign_sets():
    from growthlab import ParentMismatch

    q = QuotientView(H3, derived_subgroup(H3.generators()))
    other = generate_example("ball ut:3:5 radius=1")
    with pytest.raises(ParentMismatch):
        build_section(q, other)


def test_pullback_check():
    A = generate_example("ball ut:3:3 radius=6")
    q = QuotientView(H3, derived_subgroup(H3.generators()))
    P = quotient_project(q, A)
    rep = pullback_check(q, A, P, 1, Fraction(1))
    assert rep.verified and rep.size == 27 and rep.lower_bound == Fraction(27)
    with pytest.raises(CertificateError):
        pullback_check(q, A, P, 1, Fraction(2))


def test_abelian_factorization_fields():
    cert = greedy_cover_certificate(_ball("ut:3:5"))
    fz = abelian_factorization(cert, 2)
    assert fz.step == 2
    assert fz.r == len(fz.cyclic_parts) == 0
    assert len(fz.H_part) == 125  # the whole group swallows the fibres
    assert fz.product_size == 125
    assert fz.density == Fraction(25)


def test_factorization_needs_genuine_step():
    from growthlab import StepTooLow

    A = generate_example("random-symmetric ab:101 size=15 seed=21")
    with pytest.raises(StepTooLow):
        abelian_factorization(greedy_cover_certificate(A), 2)


def test_step_reduction_mod3():
    cert = greedy_cover_certificate(_ball("ut:3:3"))
    red = step_reduction(cert, cert, 1, 2)
    assert red.step_in == 2
    assert red.step_drop_verified
    assert red.N.order() == 3
    assert [len(f.aset) for f in red.factors] == [13]
    assert red.product_size == 13


def test_containment_radius_and_word_bound():
    A = _ball("ut:3:0")
    spec = ProgressionSpec((Element(HZ, (1, 0, 0)), Element(HZ, (0, 0, 1))), (1, 1))
    P = ordered_progression(spec)
    r_exact = containment_radius(P, A)
    r_word = word_radius_bound(spec, A)
    assert r_exact == 2
    assert r_word == 2  # radius-1 generators, bounds (1,1)
    assert P <= power(A, r_word)
    # a generator that never appears in any power is reported, not looped on
    xline = GSet(H3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], _reduced=True)
    with pytest.raises(ContainmentError):
        word_radius_bound(ProgressionSpec((Element(H3, (0, 1, 0)),), (1,)), xline)


def test_decompose_mod3_frozen():
    cert = greedy_cover_certificate(_ball("ut:3:3"))
    dec = decompose(cert)
    rep = dec.to_report()
    assert rep["size_H"] == 27
    assert rep["radius_H"] == 4
    assert rep["rank_final"] == 3
    assert rep["radius_P"] == 0
    assert rep["delta"] == "1"
    assert rep["xi"] == [0, 1, 2]
    assert dec.H.is_normal is True
    assert dec.delta > 0
    assert len(dec.pieces) == 3


def test_corollary_covers_mod3():
    cert = greedy_cover_certificate(_ball("ut:3:3"))
    dec = decompose(cert)
    rz = corollary_covers(dec, cert, "ruzsa")
    assert rz.verified and len(rz.X) == 1 and rz.rank == 6
    ch = corollary_covers(dec, cert, "chang")
    assert ch.verified and ch.t == 1 and list(ch.stage_sizes) == [1] and ch.rank == 7


def test_decompose_respects_config_budget():
    cert = greedy_cover_certificate(_ball("ut:3:5"))
    from growthlab import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        decompose(cert, PipelineConfig(budget=200))
