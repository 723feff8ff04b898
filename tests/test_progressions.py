"""Progressions: ordered/word/hull realizations and the nesting chain.

word_progression is checked against an independent interleaving oracle
that enumerates every admissible generator sequence; Hall-basis counts
are checked against Witt's dimension formula.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetExceeded,
    Element,
    FiniteAbelian,
    GSet,
    ProgressionSpec,
    chain_bound,
    containment_exponent,
    hall_basis,
    heisenberg,
    hull_progression,
    ordered_progression,
    product,
    term_text,
    verify_chain,
    word_progression,
)
from growthlab.cli import main

HZ = heisenberg(0)
X = Element(HZ, (1, 0, 0))
Z = Element(HZ, (0, 0, 1))


def _interleaving_oracle(parent, gens, bounds):
    """All products where generator i or its inverse is used <= L_i times."""
    out = set()

    def walk(current, used):
        out.add(current)
        for i, g in enumerate(gens):
            if used[i] < bounds[i]:
                nxt = used[:i] + (used[i] + 1,) + used[i + 1 :]
                walk(parent.mul(current, g.coords), nxt)
                walk(parent.mul(current, parent.inv(g.coords)), nxt)

    walk(parent.identity_coords(), (0,) * len(gens))
    return out


@pytest.mark.parametrize("bounds", [(1, 1), (2, 1)])
def test_word_progression_matches_interleaving_oracle(bounds):
    spec = ProgressionSpec((X, Z), bounds)
    got = word_progression(spec)
    assert got.members == frozenset(_interleaving_oracle(HZ, (X, Z), bounds))


def test_heisenberg_chain_sizes():
    spec = ProgressionSpec((X, Z), (1, 1))
    assert len(ordered_progression(spec)) == 9
    assert len(word_progression(spec)) == 13
    hull = hull_progression(spec)
    assert len(hull.members) == 27
    cert = verify_chain(spec)
    assert (cert.ordered_size, cert.word_size, cert.hull_size) == (9, 13, 27)
    assert cert.kstar == 3
    assert cert.kstar <= cert.theoretical_bound == chain_bound(2, 2) == (96 * 2) ** 4 * 2**2


def test_chain_larger_bounds():
    cert = verify_chain(ProgressionSpec((X, Z), (2, 2)))
    assert (cert.ordered_size, cert.word_size, cert.hull_size) == (25, 87, 225)
    assert cert.kstar == 3


def test_hull_basis_contains_commutator_term():
    hull = hull_progression(ProgressionSpec((X, Z), (1, 1)))
    names = [term_text(t) for t in hull.terms]
    assert "x1" in names and "x2" in names and "[x2,x1]" in names


def _witt(r: int, w: int) -> int:
    # Witt's necklace count: (1/w) sum_{d|w} mu(d) r^(w/d)
    mu = {1: 1, 2: -1, 3: -1, 4: 0}
    total = sum(mu[d] * r ** (w // d) for d in (1, 2, 3, 4) if w % d == 0 and d <= w)
    return total // w


def test_hall_basis_witt_counts():
    basis = hall_basis(2, 4)
    weights = {}
    for term in basis:
        w = 1 if isinstance(term, int) else _weight(term)
        weights[w] = weights.get(w, 0) + 1
    assert [weights.get(w, 0) for w in (1, 2, 3, 4)] == [_witt(2, w) for w in (1, 2, 3, 4)]
    assert [_witt(2, w) for w in (1, 2, 3, 4)] == [2, 1, 2, 3]


def _weight(term) -> int:
    if isinstance(term, int):
        return 1
    return _weight(term[0]) + _weight(term[1])


def _term_key(term):
    def enc(t):
        return (0, t) if isinstance(t, int) else (1, enc(t[0]), enc(t[1]))

    return (_weight(term), enc(term))


def _hall_basis_plain(rank, step):
    """The basis by every pair's keys recomputed from the terms."""
    by_weight = {1: list(range(rank))}
    for w in range(2, step + 1):
        fresh = [
            (u, v)
            for wu in range(1, w)
            for u in by_weight[wu]
            for v in by_weight[w - wu]
            if _term_key(u) > _term_key(v)
            and (isinstance(u, int) or _term_key(u[1]) <= _term_key(v))
        ]
        by_weight[w] = sorted(fresh, key=_term_key)
    return [t for level in by_weight.values() for t in level]


@pytest.mark.parametrize("rank,step", [(0, 3), (1, 4), (2, 6), (3, 4), (4, 3)])
def test_hall_basis_matches_plain_loop(rank, step):
    assert hall_basis(rank, step) == _hall_basis_plain(rank, step)


def test_hull_progression_counts_hall_pairs_against_budget():
    # Step 30 over two generators has about 10^8 candidate pairs; the
    # count stops the enumeration at the budget.
    spec = ProgressionSpec((X, Z), (1, 1))
    with pytest.raises(BudgetExceeded) as ei:
        hull_progression(spec, step=30, budget=10_000)
    assert ei.value.op == "hall_basis"


def test_hall_basis_counts_every_weight_split_against_budget():
    # One generator has no basic bracket, so every split has no candidate
    # pair; each still counts, or step 4,000 loops 8 M times at any budget.
    with pytest.raises(BudgetExceeded) as ei:
        hall_basis(1, 4000, budget=2000)
    assert (ei.value.op, ei.value.needed) == ("hall_basis", 2001)
    assert hall_basis(1, 63, budget=2000) == [0]


def test_term_text():
    basis = hall_basis(2, 3)
    rendered = {term_text(t) for t in basis}
    assert "[x2,x1]" in rendered
    assert "[[x2,x1],x1]" in rendered


def test_abelian_progressions_coincide():
    parent = FiniteAbelian((101,))
    spec = ProgressionSpec((Element(parent, (3,)), Element(parent, (5,))), (4, 4))
    P = ordered_progression(spec)
    W = word_progression(spec)
    hull = hull_progression(spec, step=1)
    assert P == W == hull.members
    assert len(P) == 57


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2))
def test_ordered_inside_word_inside_hull(l1, l2):
    spec = ProgressionSpec((X, Z), (l1, l2))
    P = ordered_progression(spec)
    W = word_progression(spec)
    hull = hull_progression(spec)
    assert P <= W
    assert W <= hull.members


def test_containment_exponent():
    spec = ProgressionSpec((X, Z), (1, 1))
    W = word_progression(spec)
    k = containment_exponent(W, spec)
    assert k == 2  # the word progression needs exactly the square
    P = ordered_progression(spec)
    for m in range(1, k):
        assert not W <= _pow(P, m)
    assert W <= _pow(P, k)


def _pow(S, m):
    from growthlab import power

    return power(S, m)


def test_rank_zero_spec():
    spec = ProgressionSpec((), ())
    assert spec.rank == 0
    with pytest.raises(ValueError):
        ordered_progression(spec)


def _count_calls(monkeypatch, cls, name):
    calls = []
    real = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *a: calls.append(a) or real(self, *a))
    return calls


def test_power_interval_checks_budget_while_it_grows(monkeypatch, capsys):
    muls = _count_calls(monkeypatch, FiniteAbelian, "mul")
    argv = ["prog", "build", "ab:0", "--gens", "1", "--bounds", "2000000", "--budget", "10"]
    assert main(argv) == 2
    assert "BudgetExceeded: product" in capsys.readouterr().err
    assert len(muls) <= 12


def test_power_interval_stops_when_powers_repeat(monkeypatch, capsys):
    muls = _count_calls(monkeypatch, FiniteAbelian, "mul")
    assert main(["prog", "build", "ab:7", "--gens", "1", "--bounds", "3000000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["members"] == [[i] for i in range(7)]
    assert len(muls) <= 14


def _reference_ordered(spec, budget):
    """The plain fold: each whole interval, then its product."""
    parent = spec.parent
    acc = GSet.identity_set(parent)
    for g, L in zip(spec.generators, spec.bounds):
        pos = neg = parent.identity_coords()
        out = {pos}
        gi = parent.inv(g.coords)
        for _ in range(L):
            pos, neg = parent.mul(pos, g.coords), parent.mul(neg, gi)
            out.update((pos, neg))
        acc = product(acc, GSet(parent, out, _reduced=True), budget)
    return acc


_PROG_PARENTS = {
    "ab:0": FiniteAbelian((0,)),
    "ab:7": FiniteAbelian((7,)),
    "ut:3:0": heisenberg(0),
    "ut:3:3": heisenberg(3),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_PROG_PARENTS)), st.data())
def test_ordered_progression_matches_plain_fold(name, data):
    parent = _PROG_PARENTS[name]
    coord = st.tuples(*[st.integers(-3, 3)] * parent.arity)
    gens = data.draw(st.lists(coord, min_size=1, max_size=3))
    bounds = data.draw(st.lists(st.integers(0, 12), min_size=len(gens), max_size=len(gens)))
    budget = data.draw(st.integers(1, 3000))
    spec = ProgressionSpec(tuple(Element(parent, parent.reduce(c)) for c in gens), tuple(bounds))
    try:
        expected = _reference_ordered(spec, budget)
    except BudgetExceeded as e:
        with pytest.raises(BudgetExceeded) as ei:
            ordered_progression(spec, budget)
        assert ei.value.op == e.op == "product"
        assert ei.value.needed <= e.needed
    else:
        assert ordered_progression(spec, budget) == expected
