"""Coset-progression search in abelian difference bodies, plus the
derived Sanders-style cover with its Plünnecke size bound.

The search returns a difference body that is itself a subgroup without
searching, skips candidates whose answer it already knows (stabiliser skip,
frontier growth, nested-join skip, size prefilter on joins), scores every
difference by counting pairs, and takes 2A-2A of a symmetric set from the
power walk.  The functions under "Reference search" are the plain loops it
replaced; hypothesis pins the search and each shortcut to them.
"""
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetExceeded,
    CertificateError,
    CosetProgression,
    Element,
    FiniteAbelian,
    GSet,
    NotAbelian,
    derive_sanders_cover,
    difference_body,
    find_coset_progression,
    greedy_cover_certificate,
    ProgressionSpec,
    QuotientView,
    SubgroupHandle,
    Unitriangular,
    abelianization,
    derived_subgroup,
    inverse_set,
    ordered_progression,
    power,
    product,
    span,
    symmetrize,
)
from growthlab.oracle import _body_is_subgroup, _popular_differences, subgroups_within
from growthlab.recipes import generate_example


def test_interval_oracle_frozen():
    A = generate_example("interval ab:101 L=10")
    res = find_coset_progression(A, rank_max=2)
    assert res.best.rank == 1
    assert res.best.H.order() == 1
    assert len(res.best.realized) == 81
    assert res.density == Fraction(27, 7)  # 81/21
    assert res.body_size == 81
    D = difference_body(A)
    assert res.best.realized <= D
    assert D == power(A, 4)  # symmetric input: 2A-2A is the fourth power


def test_coset_union_oracle_finds_subgroup():
    A = generate_example("coset-union ab:12,12 sub=4,0|0,4 reps=1,0|0,1")
    res = find_coset_progression(A, rank_max=2)
    # the difference body of the 45-element union spans everything, and the
    # tie-break prefers the larger subgroup part: the whole group, rank 0
    assert res.best.H.order() == 144
    assert res.best.rank == 0
    assert res.density == Fraction(16, 5)
    assert res.best.realized <= difference_body(A)


def test_oracle_returns_a_subgroup_body_without_searching():
    # ut:3:11 over its centre is Z₁₁²; this set's 2A-2A is all of it.
    A = generate_example("random-symmetric ut:3:11 size=11 seed=111")
    Abar = abelianization(A.parent).image(A)
    D = difference_body(Abar)
    assert len(D) == 121
    res = find_coset_progression(Abar, rank_max=3)
    assert res.best.H.elements == D
    assert res.best.realized == D
    assert res.best.rank == 0
    assert res.search_log == 0
    assert res.body_size == 121
    assert res.density == Fraction(121, len(Abar))
    # Two rows D·t decide it: the first t generates a Z₁₁, the second the
    # rest, and H keeps those two t as its generators.
    gens = _body_is_subgroup(Abar, D, 242)
    assert len(gens) == 2
    assert [g.coords for g in res.best.H.generators] == gens
    with pytest.raises(BudgetExceeded, match="find_coset_progression"):
        _body_is_subgroup(Abar, D, 241)


def test_oracle_searches_a_body_that_is_not_a_subgroup():
    # In Z no finite set but {0} is a subgroup, so the search runs in full.
    A = GSet(FiniteAbelian((0,)), [(-2,), (0,), (1,), (2,)])
    res = find_coset_progression(A, rank_max=2)
    assert _body_is_subgroup(A, difference_body(A), 10**6) is None
    assert res.search_log == ref_find_coset_progression(A, 2)[5] > 0
    assert res.best.H.order() == 1
    assert res.best.rank == 1


def test_realized_set_is_reverified():
    parent = FiniteAbelian((12,))
    H = span([Element(parent, (4,))])
    wrong = GSet(parent, [(0,), (1,)], _reduced=True)
    with pytest.raises(CertificateError):
        CosetProgression(H, (Element(parent, (1,)),), (1,), wrong)


def test_coset_progression_reverifies_under_the_callers_budget():
    parent = FiniteAbelian((12,))
    H = span([Element(parent, (4,))])
    x = Element(parent, (1,))
    realized = product(H.elements, ordered_progression(ProgressionSpec((x,), (1,))))
    cp = CosetProgression(H, (x,), (1,), realized)
    with pytest.raises(BudgetExceeded):
        CosetProgression(H, (x,), (1,), realized, budget=1)
    # The budget is an init-only argument: not a field, not part of equality.
    assert CosetProgression(H, (x,), (1,), realized, budget=10**6) == cp
    assert "budget" not in {f.name for f in fields(cp)}


def test_oracle_requires_commuting_members():
    ball = generate_example("ball ut:3:5 radius=1")
    with pytest.raises(NotAbelian):
        find_coset_progression(ball, rank_max=1)


def test_sanders_cover_bound():
    A = generate_example("random-symmetric ab:101 size=15 seed=21")
    cert = greedy_cover_certificate(A)
    res = find_coset_progression(A, rank_max=2)
    sc = derive_sanders_cover(cert, res)
    assert len(sc.doubled) <= Fraction(cert.K_upper) ** 8 * len(A)
    # the doubled progression really covers A through X
    hull = _translate_hull(sc.X, sc.doubled)
    assert A <= hull


def _translate_hull(X, body):
    from growthlab import product

    return product(X, body)


def test_oracle_determinism():
    A = generate_example("random-symmetric ab:61 size=13 seed=12")
    r1 = find_coset_progression(A, rank_max=2)
    r2 = find_coset_progression(A, rank_max=2)
    assert r1.best.generators == r2.best.generators
    assert r1.best.bounds == r2.best.bounds
    assert r1.density == r2.density


# --------------------------------------------------------------------------
# Reference search: the plain loops, multiplying everything out every time


def ref_subgroups_within(D):
    mul = D.parent.mul
    ident = D.parent.identity_coords()
    if ident not in D.members:
        return []
    found = {frozenset((ident,))}
    for d in D.sorted_members():
        if d == ident:
            continue
        path = {ident}
        cur = d
        while cur != ident:
            if cur not in D.members:
                path = None
                break
            path.add(cur)
            cur = mul(cur, d)
        if path is not None:
            found.add(frozenset(path))
    work = sorted(found, key=lambda s: (len(s), sorted(s)))
    known = set(found)
    while work:
        H1 = work.pop()
        for H2 in list(known):
            join = {mul(a, b) for a in H1 for b in H2}
            if len(join) <= len(D) and join <= D.members:
                fs = frozenset(join)
                if fs not in known:
                    known.add(fs)
                    work.append(fs)
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def ref_grow_slot(realized, x, D):
    mul, inv = D.parent.mul, D.parent.inv
    xi = inv(x)
    cur = realized
    L = 0
    while True:
        nxt = cur | {mul(w, x) for w in cur} | {mul(w, xi) for w in cur}
        if nxt == cur or not nxt <= D.members:
            return cur, L
        cur = nxt
        L += 1


def ref_difference_body(A):
    """A·A·A⁻¹·A⁻¹ by whole products."""
    neg = inverse_set(A)
    return product(product(product(A, A), neg), neg)


def ref_popular_differences(A, D):
    """D∖{1} ranked by |A ∩ A·d|, each d scored by shifting the whole set."""
    mul = A.parent.mul
    ident = A.parent.identity_coords()
    popularity = {
        d: len({mul(a, d) for a in A.members} & A.members)
        for d in D.members
        if d != ident
    }
    return sorted(popularity, key=lambda d: (-popularity[d], d))


def ref_find_coset_progression(A, rank_max):
    """(H, generators, bounds, realized, density, search_log, body_size)."""
    D = ref_difference_body(A)
    candidates = ref_popular_differences(A, D)
    examined = 0
    best_key = best = None
    for H in ref_subgroups_within(D):
        realized = set(H)
        gens, bounds = [], []
        for x in candidates:
            if len(gens) >= rank_max:
                break
            examined += 1
            trial, L = ref_grow_slot(realized, x, D)
            if L > 0 and len(trial) > len(realized):
                realized = trial
                gens.append(x)
                bounds.append(L)
        key = (-len(realized), -len(H), len(gens), tuple(gens))
        if best is None or key < best_key:
            best_key = key
            best = (frozenset(H), tuple(gens), tuple(bounds), frozenset(realized))
    return best + (Fraction(len(best[3]), len(A)), examined, len(D))


def _summary(res):
    cp = res.best
    return (
        cp.H.elements.members,
        tuple(g.coords for g in cp.generators),
        cp.bounds,
        cp.realized.members,
        res.density,
        res.search_log,
        res.body_size,
    )


def _assert_matches_reference(A):
    # A difference body that is a subgroup is returned without a search, so
    # its search_log is 0; every other field is the plain search's.
    D = ref_difference_body(A)
    searched = D.members not in ref_subgroups_within(D)
    for rank_max in (1, 2, 3):
        got = _summary(find_coset_progression(A, rank_max=rank_max))
        ref = ref_find_coset_progression(A, rank_max)
        assert got == ref[:5] + (ref[5] if searched else 0,) + ref[6:]


def _subset(pool):
    return st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=5, unique=True)


@st.composite
def _one_coordinate(draw):
    G = FiniteAbelian((draw(st.sampled_from((2, 3, 5, 7, 12, 13))),))
    return GSet(G, draw(_subset({(i,) for i in range(G.moduli[0])})))


@st.composite
def _mixed(draw):
    moduli = (draw(st.sampled_from((2, 3, 4, 6))), draw(st.sampled_from((0, 2, 3, 6))))
    G = FiniteAbelian(moduli)
    rows = [range(m) if m else range(-2, 3) for m in moduli]
    return GSet(G, draw(_subset({(i, j) for i in rows[0] for j in rows[1]})))


@st.composite
def _free(draw):
    G = FiniteAbelian((0,))
    return GSet(G, draw(_subset({(i,) for i in range(-6, 7)})))


def _heisenberg_quotients():
    """ut:3:p over its centre (abelian) and over the trivial subgroup."""
    out = []
    for p in (2, 3, 5):
        U = Unitriangular(3, p)
        trivial = SubgroupHandle(U, GSet.identity_set(U))
        out.append(QuotientView(U, derived_subgroup(U.generators())))
        out.append(QuotientView(U, trivial))
    return out


_HEISENBERG_QUOTIENTS = _heisenberg_quotients()


@st.composite
def _quotient_commuting(draw):
    q = draw(st.sampled_from(_HEISENBERG_QUOTIENTS))
    U = q.base
    if q.is_abelian():
        pool = {q.reduce(c) for c in U.iter_coords()}
    else:
        # ⟨a, z⟩ with z central: a commuting set in a non-abelian parent
        a = draw(st.sampled_from(sorted(c for c in U.iter_coords() if c[0] or c[2])))
        pool = span([Element(q, a), Element(q, (0, 1, 0))]).elements.members
    return GSet(q, draw(_subset(pool)), _reduced=True)


@settings(max_examples=150, deadline=None)
@given(_one_coordinate())
def test_search_matches_reference_one_coordinate(A):
    _assert_matches_reference(A)


@settings(max_examples=100, deadline=None)
@given(_mixed())
def test_search_matches_reference_mixed(A):
    _assert_matches_reference(A)


@settings(max_examples=60, deadline=None)
@given(_free())
def test_search_matches_reference_free(A):
    _assert_matches_reference(A)


@settings(max_examples=100, deadline=None)
@given(_quotient_commuting())
def test_search_matches_reference_heisenberg_quotient(A):
    _assert_matches_reference(A)


_COMMUTING_SETS = st.one_of(_one_coordinate(), _mixed(), _free(), _quotient_commuting())


@settings(max_examples=200, deadline=None)
@given(_COMMUTING_SETS, st.booleans())
def test_oracle_shortcuts_match_plain_loops(A, symmetric):
    # Symmetric sets with 1 take 2A-2A = A⁴ from the power walk; the others
    # take the product chain.
    if symmetric:
        A = symmetrize(A)
    D = difference_body(A)
    assert D.members == ref_difference_body(A).members
    assert _popular_differences(A, D) == ref_popular_differences(A, D)
    subs = ref_subgroups_within(D)
    assert [H.elements.members for H in subgroups_within(D)] == subs
    gens = _body_is_subgroup(A, D, 10**6)
    assert (gens is not None) == (D.members in subs)
    # A subgroup D comes with generators, and they generate all of D.
    if gens:
        assert span([Element(A.parent, t) for t in gens]).elements == D
    elif gens is not None:
        assert D.members == {A.parent.identity_coords()}
