"""Set calculus: exact products, powers, symmetry, and budget behaviour.

A product with a subgroup (the elements of a `SubgroupHandle`) goes coset by
coset; `ref_product` is the plain double loop, which checks the budget on
the pairs and on the size, and a hypothesis property pins the coset path to
it, as it pins a plain product whose operands hold 1, where the identity's
row is the other operand.  A power walk that pulls its last layers in a
finite parent is pinned the same way to `ref_push_walk`, repeated products
under the push step's checks.
"""
import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetExceeded,
    Element,
    FiniteAbelian,
    GSet,
    ParentMismatch,
    QuotientView,
    SubgroupHandle,
    Unitriangular,
    certify,
    generate_example,
    growth_stats,
    heisenberg,
    inverse_set,
    normal_closure,
    parse_group,
    power,
    power_chain,
    product,
    span,
    symmetrize,
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


# --------------------------------------------------------------------------
# Products with a subgroup, coset by coset, against the plain double loop


def ref_product(A, B, budget):
    """{a·b} by a double loop, with budget checks on the pairs, then the size."""
    pairs = len(A) * len(B)
    if pairs > budget:
        return ("product", pairs)
    mul = A.parent.mul
    out = frozenset(mul(a, b) for a in A.members for b in B.members)
    if len(out) > budget:
        return ("product", len(out))
    return out


def _centre_quotient(U):
    corner = [0] * U.arity
    corner[U.pos_index[(0, U.n - 1)]] = 1
    return QuotientView(U, normal_closure([Element(U, tuple(corner))], U.generators()))


_PRODUCT_GROUPS = [parse_group(t) for t in ("ab:7", "ab:12", "ut:3:3", "ut:3:5", "ut:4:2")]
_PRODUCT_GROUPS += [_centre_quotient(Unitriangular(3, 5)), parse_group("prod:(ab:4);(ut:3:2)")]
_PRODUCT_POOLS = {G: sorted(G.iter_coords()) for G in _PRODUCT_GROUPS}


@st.composite
def _subgroup(draw, G):
    """The elements of a handle: a span, a normal closure, {1} or G."""
    kind = draw(st.sampled_from(["span", "closure", "trivial", "whole"]))
    if kind == "trivial":
        return SubgroupHandle(G, GSet.identity_set(G)).elements
    if kind == "whole":
        return span(G.generators()).elements
    gens = [Element(G, c) for c in draw(st.lists(st.sampled_from(_PRODUCT_POOLS[G]), min_size=1, max_size=3))]
    if kind == "span":
        return span(gens).elements
    return normal_closure(gens, G.generators()).elements


@st.composite
def _product_case(draw):
    """A subgroup on either side, the other operand a drawn set or a subgroup,
    and a budget below the pairs (refused) or at least the pairs (the set)."""
    G = draw(st.sampled_from(_PRODUCT_GROUPS))
    H = draw(_subgroup(G))
    X = draw(st.one_of(
        st.lists(st.sampled_from(_PRODUCT_POOLS[G]), max_size=8).map(lambda cs: GSet(G, cs, _reduced=True)),
        _subgroup(G),
    ))
    A, B = (X, H) if draw(st.booleans()) else (H, X)
    pairs = len(A) * len(B)
    return A, B, draw(st.one_of(st.integers(1, max(pairs, 1)), st.integers(max(pairs, 1), pairs + 2)))


# In Z_12, {0, 1, 4}·⟨4⟩ = {0, 4, 8, 1, 5, 9}: 9 pairs, 6 elements.
_Z12 = FiniteAbelian((12,))
_X012 = GSet(_Z12, [(0,), (1,), (4,)], _reduced=True)
_H4 = span([Element(_Z12, (4,))]).elements


@example(case=(_X012, _H4, 8))
@example(case=(_X012, _H4, 5))
@example(case=(_H4, _X012, 8))
@example(case=(_H4, _X012, 5))
@settings(max_examples=300, deadline=None)
@given(_product_case())
def test_product_with_a_subgroup_matches_the_double_loop(case):
    A, B, budget = case
    try:
        got = product(A, B, budget).members
    except BudgetExceeded as e:
        got = (e.op, e.needed)
    assert got == ref_product(A, B, budget)


def test_product_with_the_whole_group_calls_no_row(monkeypatch):
    G = Unitriangular(3, 5)
    whole = span(G.generators()).elements
    X = GSet(G, [(1, 2, 3), (0, 0, 0), (4, 0, 1)], _reduced=True)

    def refuse(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(Unitriangular, "left_row", refuse)
    monkeypatch.setattr(Unitriangular, "right_row", refuse)
    assert product(X, whole).members == whole.members
    assert product(whole, X).members == whole.members
    assert product(whole, whole).members == whole.members


def test_product_with_the_identity_is_the_other_operand():
    G = Unitriangular(3, 5)
    X = GSet(G, [(1, 2, 3), (4, 0, 1)], _reduced=True)
    for one in (GSet.identity_set(G), SubgroupHandle(G, GSet.identity_set(G)).elements):
        assert product(X, one) is X
        assert product(one, X) is X
    with pytest.raises(BudgetExceeded) as ei:
        product(X, GSet.identity_set(G), budget=1)
    assert (ei.value.op, ei.value.needed) == ("product", 2)


# --------------------------------------------------------------------------
# Plain products, where the identity's row is the other operand


def _general_quotient(G, gen):
    """G by a normal subgroup that is not all tuples on some coordinates, so
    its arithmetic reduces through coset representatives."""
    K = normal_closure([Element(G, gen)], G.generators())
    return QuotientView(G, K)


_PLAIN_GROUPS = [parse_group(t) for t in ("ab:12", "ab:5,7", "ut:3:5", "ut:3:0", "prod:(ab:4);(ut:3:2)")]
_PLAIN_GROUPS += [_centre_quotient(Unitriangular(3, 5)), _general_quotient(FiniteAbelian((12,)), (4,)),
                  _general_quotient(Unitriangular(3, 3), (1, 1, 0))]


def _plain_pool(G):
    if G.is_finite():
        return sorted({G.reduce(c) for c in (G.base if isinstance(G, QuotientView) else G).iter_coords()})
    return sorted(G.reduce(c) for c in itertools.product(range(-2, 3), repeat=G.arity))


_PLAIN_POOLS = {G: _plain_pool(G) for G in _PLAIN_GROUPS}


@st.composite
def _plain_product_case(draw):
    """Two drawn sets, each with 1 or without it, and a budget around the pairs."""
    G = draw(st.sampled_from(_PLAIN_GROUPS))
    one = G.identity_coords()

    def operand():
        cs = set(draw(st.lists(st.sampled_from(_PLAIN_POOLS[G]), min_size=1, max_size=7)))
        cs = (cs | {one}) if draw(st.booleans()) else (cs - {one} or {_PLAIN_POOLS[G][-1]})
        return GSet(G, cs, _reduced=True)

    A, B = operand(), operand()
    pairs = len(A) * len(B)
    return A, B, draw(st.sampled_from([pairs - 1, pairs, pairs + 5]))


@settings(max_examples=300, deadline=None)
@given(_plain_product_case())
def test_product_with_the_identity_in_either_operand_matches_the_double_loop(case):
    A, B, budget = case
    try:
        got = product(A, B, budget).members
    except BudgetExceeded as e:
        got = (e.op, e.needed)
    assert got == ref_product(A, B, budget)


def test_product_takes_the_identity_row_without_a_product(monkeypatch):
    # {0, 1, 2} + {0, 5, 7, 9} takes the rows 1 + B and 2 + B only, and
    # B + {0, 1, 2} the columns B + 1 and B + 2.
    G = FiniteAbelian((101,))
    A, B = _gs(G, [0, 1, 2]), _gs(G, [0, 5, 7, 9])
    expected = ref_product(A, B, 100)
    rows = []
    left, right = FiniteAbelian.left_row, FiniteAbelian.right_row
    monkeypatch.setattr(FiniteAbelian, "left_row", lambda self, a, bs: rows.append(a) or left(self, a, bs))
    monkeypatch.setattr(FiniteAbelian, "right_row", lambda self, as_, b: rows.append(b) or right(self, as_, b))
    assert product(A, B).members == expected
    assert sorted(rows) == [(1,), (2,)]
    rows.clear()
    assert product(B, A).members == expected
    assert sorted(rows) == [(1,), (2,)]


# --------------------------------------------------------------------------
# Power walks that pull their last layer, against repeated products


def ref_push_walk(A, n):
    """[A, …, Aⁿ] as member sets by repeated product(cur, A), and the values
    the push step checks against the budget on the way, in order: the newest
    layer's pairs (|A^k| − |A^{k−1}|)·|A|, then |A^{k+1}|.  A power equal
    to the one before ends the walk, as in `power_chain`."""
    chain, checks, prev = [A], [], 1
    while len(chain) < n:
        cur = chain[-1]
        nxt = product(cur, A)
        checks += [(len(cur) - prev) * len(A), len(nxt)]
        if nxt.members == cur.members:
            break
        chain.append(nxt)
        prev = len(cur)
    return [S.members for S in chain] + [chain[-1].members] * (n - len(chain)), checks


_WALK_GROUPS = [parse_group(t) for t in (
    "ut:3:2", "ut:3:3", "ut:3:5", "ut:3:7", "ut:4:2", "ab:3,5", "ab:5,7", "prod:(ab:2);(ut:3:3)",
)]
_WALK_POOLS = {G: sorted(G.iter_coords()) for G in _WALK_GROUPS}


@st.composite
def _walk_case(draw):
    """A symmetric set with 1 in a finite group, and a chain length that
    usually runs the walk into the last few elements of the group."""
    G = draw(st.sampled_from(_WALK_GROUPS))
    coords = draw(st.lists(st.sampled_from(_WALK_POOLS[G]), min_size=1, max_size=4))
    return symmetrize(GSet(G, coords, _reduced=True)), draw(st.integers(2, 12))


@example(case=(generate_example("ball ut:3:7 radius=2"), 8))
@example(case=(generate_example("random-symmetric ut:3:7 size=9 seed=1071"), 12))
@settings(max_examples=200, deadline=None)
@given(_walk_case())
def test_power_chain_pulls_what_repeated_products_push(case):
    A, n = case
    chain, checks = ref_push_walk(A, n)
    needed = max(checks)
    fresh = GSet(A.parent, A.members, _reduced=True)  # no stored walk
    for budget in (needed - 1, needed):  # the second call resumes the stored walk
        over = [c for c in checks if c > budget]
        try:
            got = [S.members for S in power_chain(fresh, n, budget)]
        except BudgetExceeded as e:
            got = (e.op, e.needed, e.budget)
        assert got == (("product", over[0], budget) if over else chain)
