"""Set calculus: exact products, powers, symmetry, and budget behaviour."""
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetExceeded,
    FiniteAbelian,
    GSet,
    ParentMismatch,
    certify,
    growth_stats,
    heisenberg,
    inverse_set,
    power,
    power_chain,
    product,
    symmetrize,
    translate,
)

Z101 = FiniteAbelian((101,))
H3 = heisenberg(3)


def _gs(parent, coords):
    return GSet(parent, [parent.reduce(tuple(c) if isinstance(c, tuple) else (c,)) for c in coords], _reduced=True)


def test_product_matches_brute_force():
    A = _gs(Z101, [0, 1, 5])
    B = _gs(Z101, [2, 3])
    expect = {((a[0] + b[0]) % 101,) for a in A.members for b in B.members}
    assert product(A, B).members == frozenset(expect)


def test_product_noncommutative_order_matters():
    x = _gs(H3, [(1, 0, 0), (0, 0, 0)])
    z = _gs(H3, [(0, 0, 1), (0, 0, 0)])
    assert product(x, z) != product(z, x)


coord_sets = st.sets(st.integers(0, 100), min_size=1, max_size=8)


@settings(max_examples=80)
@given(coord_sets, coord_sets)
def test_product_inverse_antihomomorphism(aa, bb):
    A, B = _gs(Z101, aa), _gs(Z101, bb)
    assert inverse_set(product(A, B)) == product(inverse_set(B), inverse_set(A))


@settings(max_examples=80)
@given(coord_sets)
def test_symmetrize_properties(aa):
    S = symmetrize(_gs(Z101, aa))
    assert S.is_symmetric()
    assert S.contains_identity()
    assert symmetrize(S) == S


def test_power_chain_consistency():
    A = symmetrize(_gs(Z101, [1, 5]))
    chain = power_chain(A, 4)
    assert [len(c) for c in chain] == [len(power(A, k)) for k in range(1, 5)]
    assert chain[0] == A
    # identity in A makes powers nested
    for small, big in zip(chain, chain[1:]):
        assert small <= big


def test_power_zero_is_identity():
    A = _gs(H3, [(1, 0, 0)])
    P0 = power(A, 0)
    assert len(P0) == 1 and P0.contains_identity()


def test_translate():
    A = _gs(Z101, [0, 1])
    T = translate(A.parent.element((10,)), A)
    assert T.members == frozenset({(10,), (11,)})


def test_growth_stats_values_and_warning():
    A = symmetrize(_gs(Z101, [1]))
    st_ = growth_stats(A, 3)
    assert list(st_.sizes) == [3, 5, 7]
    assert str(st_.doubling) == "5/3"
    assert str(st_.tripling) == "7/3"
    noid = _gs(Z101, [2, 99])
    with pytest.warns(UserWarning):
        growth_stats(noid, 2)


def test_budget_enforced():
    A = _gs(Z101, list(range(30)))
    with pytest.raises(BudgetExceeded) as ei:
        product(A, A, budget=100)
    assert ei.value.op == "product"
    with pytest.raises(BudgetExceeded):
        power(A, 3, budget=500)


def test_power_walk_is_shared_only_in_a_finite_parent(monkeypatch):
    # Every layer of a walk in ab:p goes through FiniteAbelian.left_row, so
    # counting its pairs shows whether a second walk rebuilt anything.
    pairs = []
    plain_row = FiniteAbelian.left_row

    def counting_row(self, a, bs):
        row = plain_row(self, a, bs)
        pairs.append(len(row))
        return row

    monkeypatch.setattr(FiniteAbelian, "left_row", counting_row)
    A = symmetrize(_gs(Z101, [1, 10]))
    first = [S.members for S in power_chain(A, 6)]
    assert sum(pairs) > 0
    pairs.clear()
    assert [S.members for S in power_chain(A, 6)] == first
    assert sum(pairs) == 0
    # In Z the powers are unbounded, so the set keeps no walk and a second
    # walk computes every layer again.
    Z = symmetrize(_gs(FiniteAbelian((0,)), [1, 10]))
    power_chain(Z, 6)
    built = sum(pairs)
    pairs.clear()
    power_chain(Z, 6)
    assert sum(pairs) == built > 0
    assert Z._walk is None


def test_certify_square_from_the_walk_keeps_the_product_guard():
    # The stored A² cost (|A|-1)|A| pairs; certify still refuses at |A|².
    A = symmetrize(_gs(Z101, [1, 10]))
    power(A, 2)
    n = len(A) ** 2
    with pytest.raises(BudgetExceeded) as ei:
        certify(A, A, budget=n - 1)
    assert (ei.value.op, ei.value.needed, ei.value.budget) == ("product", n, n - 1)
    assert certify(A, A, budget=n).square_size == len(power(A, 2))


def _outcome(fn, *args):
    try:
        return fn(*args).members
    except BudgetExceeded as e:
        return (e.op, e.needed, e.budget)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=4),
    st.booleans(),
    st.integers(1, 9),
    st.integers(1, 200),
)
def test_power_matches_the_last_power_of_the_chain(coords, unit, n, budget):
    # In Z_31 the walk stabilises within a few steps, so n runs past it.
    A = _gs(FiniteAbelian((31,)), coords + [0] if unit else coords)
    expected = _outcome(lambda *a: power_chain(*a)[-1], A, n, budget)
    fresh = _gs(A.parent, coords + [0] if unit else coords)  # no stored walk
    assert _outcome(power, fresh, n, budget) == expected


def test_power_holds_only_the_newest_power():
    # |A^150| = 45,301 for A = {0, ±e1, ±e2} in Z², and A^1, ..., A^150
    # together hold about 2.3 M entries: keeping them peaks near 110 MB,
    # the newest power alone near 12 MB.
    G = FiniteAbelian((0, 0))
    A = symmetrize(GSet(G, G.generator_coords()))
    tracemalloc.start()
    try:
        P = power(A, 150)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(P) == 2 * 150 ** 2 + 2 * 150 + 1
    assert peak < 32 * 2 ** 20


def test_parent_mismatch():
    with pytest.raises(ParentMismatch):
        product(_gs(Z101, [1]), _gs(FiniteAbelian((7,)), [1]))


def test_filter_and_orderings():
    A = _gs(Z101, [5, 3, 1])
    evens = A.filter(lambda c: c[0] % 2 == 1)
    assert evens.members == frozenset({(1,), (3,), (5,)})
    assert A.sorted_members() == ((1,), (3,), (5,))
    assert list(itertools.islice((e.coords for e in A.elements()), 3)) == [
        (1,),
        (3,),
        (5,),
    ]
