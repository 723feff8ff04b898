"""Subgroup enumeration, lower-central data, and quotient views.

The nilpotency-step results are compared against a brute-force
lower-central-series oracle that saturates commutator sets directly.
"""
import pytest

from growthlab import (
    Element,
    FiniteAbelian,
    GSet,
    QuotientView,
    commutator,
    derived_subgroup,
    heisenberg,
    normal_closure,
    quotient_project,
    span,
    step_of_generated,
    symmetrize,
)

Z122 = FiniteAbelian((12, 12))
H3 = heisenberg(3)


def _brute_subgroup(parent, gens):
    """Closure of gens under multiplication and inversion."""
    cur = {parent.identity_coords()}
    frontier = {parent.reduce(g) for g in gens}
    while frontier:
        cur |= frontier
        nxt = set()
        for a in cur:
            for b in frontier:
                for c in (parent.mul(a, b), parent.mul(b, a), parent.inv(b)):
                    if c not in cur:
                        nxt.add(c)
        frontier = nxt - cur
    return cur


def _brute_step(parent, full):
    """Nilpotency step by saturating [G, gamma_k] from the full group."""
    gamma = set(full)
    step = 0
    while len(gamma) > 1:
        step += 1
        comms = {
            commutator(Element(parent, g), Element(parent, h)).coords
            for g in full
            for h in gamma
        }
        gamma = _brute_subgroup(parent, comms)
    return step


def test_span_matches_brute_force():
    gens = [Element(Z122, (4, 0)), Element(Z122, (0, 4))]
    H = span(gens)
    assert H.elements.members == frozenset(_brute_subgroup(Z122, [(4, 0), (0, 4)]))
    assert H.order() == 9


def test_derived_subgroup_is_center_of_heisenberg():
    D = derived_subgroup(H3.generators())
    assert D.order() == 3
    assert D.elements.members == frozenset({(0, 0, 0), (0, 1, 0), (0, 2, 0)})
    assert D.is_normal is True


def test_step_matches_brute_force_oracle():
    full = _brute_subgroup(H3, H3.generator_coords())
    assert len(full) == 27
    G = span(H3.generators())
    assert step_of_generated(G.gen_elements()) == _brute_step(H3, full) == 2
    assert step_of_generated(H3.generators()) == 2
    assert step_of_generated(span([Element(Z122, (1, 0))]).gen_elements()) == 1
    assert step_of_generated(span([Element(Z122, (0, 0))]).gen_elements()) == 0


def test_normal_closure():
    x = Element(H3, (1, 0, 0))
    N = normal_closure(span([x]), H3.generators())
    assert N.is_normal is True
    # closing x under conjugation pulls in the center
    assert N.order() == 9


def test_quotient_view_arithmetic():
    q = QuotientView(H3, derived_subgroup(H3.generators()))
    assert q.order() == 9
    assert q.is_abelian()
    a = q.reduce((1, 2, 0))
    b = q.reduce((0, 1, 1))
    assert q.mul(a, b) == q.reduce((1, 0, 1))
    assert q.mul(a, q.inv(a)) == q.identity_coords()


def test_quotient_project():
    q = QuotientView(H3, derived_subgroup(H3.generators()))
    ball = symmetrize(GSet(H3, H3.generator_coords()))
    img = quotient_project(q, ball)
    assert img.parent == q
    assert len(img) == 5


def test_views_do_not_nest():
    q = QuotientView(H3, derived_subgroup(H3.generators()))
    sub = span([q.element(q.reduce((1, 0, 0)))])
    with pytest.raises(ValueError):
        QuotientView(q, sub)
