"""Subgroup closures, cyclic fibres and power chains against plain loops.

`span` grows a subgroup coset by coset, `normal_closure` conjugates only the
generators it adjoined and keeps them, so that they generate the closure as
a group, `check_normal` conjugates only a handle's generators, and both
conjugate by one element of each pair {g, g⁻¹}; the step
reduction enumerates each cyclic subgroup once per generator (or, where a
free coordinate pins the exponent, tests a ratio), and `powers` multiplies only the newest layer of a power chain and,
in a finite parent, replays the layers an earlier walk of the same set built.
`derived_subgroup`, `QuotientView.is_abelian` and the step take their
commutators from the one level builder, whose second level takes each
unordered pair once, `iter_coords` is `itertools.product`
and `growth_law` reads the power walk.  The functions under "Reference loops"
are the plain versions they replaced (for cyclic membership also a search
over every exponent that can work); hypothesis pins each fast path to them.
"""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetExceeded,
    ContainmentError,
    DirectProduct,
    Element,
    FiniteAbelian,
    GrowthRow,
    GSet,
    ProgressionSpec,
    QuotientView,
    SubgroupHandle,
    Unitriangular,
    check_normal,
    commutator,
    containment_exponent,
    containment_radius,
    derived_subgroup,
    greedy_cover_certificate,
    growth_law,
    in_cyclic,
    normal_closure,
    ordered_progression,
    parse_group,
    power_chain,
    product,
    span,
    step_of_generated,
    symmetrize,
    word_radius_bound,
)
from growthlab.gset import powers
from growthlab.pipeline import _cyclic_membership
from growthlab.subgroups import _commutator_levels

# --------------------------------------------------------------------------
# Reference loops


def _span_bfs(parent, gens, budget):
    """Breadth-first closure: every member times every generator and inverse."""
    mul, inv = parent.mul, parent.inv
    step_gens = sorted(set(gens) | {inv(g) for g in gens})
    members = {parent.identity_coords()}
    frontier = list(members)
    while frontier:
        new = []
        for f in frontier:
            for g in step_gens:
                w = mul(f, g)
                if w not in members:
                    members.add(w)
                    new.append(w)
        if len(members) > budget:
            raise BudgetExceeded("span", len(members), budget)
        frontier = new
    return frozenset(members)


def _normal_closure_loop(parent, gens, conj, budget):
    """Conjugate every element of N; re-span N plus the new conjugates."""
    mul, inv = parent.mul, parent.inv
    conj = sorted(set(conj) | {inv(g) for g in conj})
    N = _span_bfs(parent, gens, budget)
    while True:
        fresh = []
        for x in sorted(N):
            for g in conj:
                w = mul(mul(g, x), inv(g))
                if w not in N:
                    fresh.append(w)
        if not fresh:
            return N
        N = _span_bfs(parent, list(N) + fresh, budget)


def _in_cyclic_walk(parent, x, w):
    """w ∈ ⟨x⟩ by walking the powers of x, through each kernel coset of a view."""
    x, w = parent.reduce(tuple(x)), parent.reduce(tuple(w))
    identity = parent.identity_coords()
    if w == identity:
        return True
    if x == identity:
        return False
    if isinstance(parent, QuotientView):
        base = parent.base
        return any(_in_cyclic_walk(base, x, base.mul(w, k)) for k in parent.kernel.elements.members)
    pins = [j for j, m in enumerate(parent.moduli) if m == 0 and x[j] != 0]
    if pins:
        j = pins[0]
        k = w[j] // x[j]
        return parent.reduce(tuple(k * c for c in x)) == w
    if any(m == 0 and w[j] != 0 for j, m in enumerate(parent.moduli)):
        return False
    n = 1
    for j, m in enumerate(parent.moduli):
        if m:
            n = math.lcm(n, m // math.gcd(x[j] % m, m))
    cur = x
    for _ in range(n):
        if cur == w:
            return True
        cur = parent.mul(cur, x)
    return False


def _power_chain_plain(A, n):
    """[A^1, ..., A^n] by whole products, stopping once A^{k+1} = A^k."""
    chain = [A.members]
    for _ in range(n - 1):
        nxt = product(GSet(A.parent, chain[-1], _reduced=True), A).members
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return chain + [chain[-1]] * (n - len(chain))


def _growth_rows_plain(cert, n):
    """growth_law by chaining whole products A^m = A^{m-1}·A."""
    A, K = cert.aset, cert.K_upper
    rows, cur = [], A
    for m in range(1, n + 1):
        if m > 1:
            cur = product(cur, A)
        bound = K ** (m - 1) * len(A)
        rows.append(GrowthRow(m, len(cur), bound, len(cur) <= bound))
    return rows


def _derived_pairwise(parent, gens, budget):
    """[G, G] with the generators of G: every pairwise commutator, then closed."""
    elems = [Element(parent, c) for c in gens]
    comms = {commutator(a, b) for a in elems for b in elems}
    comms = sorted(c.coords for c in comms if not c.is_identity())
    if not comms:
        return frozenset({parent.identity_coords()})
    return _normal_closure_loop(parent, comms, gens, budget)


def _levels_all_pairs(parent, gens, depth, budget, op):
    """Commutator levels over every ordered pair (c, g) ∈ L_t × L_1."""
    mul, inv, ident = parent.mul, parent.inv, parent.identity_coords()
    base = {g.coords for g in gens} - {ident}
    levels = [base]
    for _ in range(depth - 1):
        nxt = {mul(mul(inv(c), inv(g)), mul(c, g)) for c in levels[-1] for g in base}
        nxt.discard(ident)
        if len(nxt) > budget:
            raise BudgetExceeded(op, len(nxt), budget)
        levels.append(nxt)
    return levels


def _is_abelian_pairs(q):
    """QuotientView.is_abelian as a loop over pairs of its generators."""
    ident = q.identity_coords()
    gens = [Element(q, c) for c in q.generator_coords()]
    return all(commutator(x, y).coords == ident for x, y in itertools.combinations(gens, 2))


def _lcs_next(cur, H, budget):
    # [cur, H] = normal closure in H of commutators of the two generating sets.
    parent = cur.parent
    comms = {commutator(x, y) for x in cur.gen_elements() for y in H.gen_elements()}
    comms = sorted(c for c in comms if not c.is_identity())
    if not comms:
        return SubgroupHandle(parent, GSet.identity_set(parent))
    return normal_closure(comms, H.gen_elements(), budget)


def _step_lcs(H, budget):
    """Nilpotency step through the lower central series H = γ_1 ⊇ γ_2 ⊇ …"""
    if H.is_trivial():
        return 0
    cur = H
    for i in range(1, H.parent.structural_step + 2):
        cur = _lcs_next(cur, H, budget)
        if cur.is_trivial():
            return i
    raise AssertionError("lower central series did not terminate")


def _iter_coords_nested(G):
    """Every element of a finite backend by nested recursion, last coordinate fastest."""
    if isinstance(G, DirectProduct):
        rows = [_iter_coords_nested(f) for f in G.factors]
    elif isinstance(G, FiniteAbelian):
        rows = [[(c,) for c in range(m)] for m in G.moduli]
    else:
        rows = [[(c,) for c in range(G.modulus)]] * G.arity

    def rec(i, prefix):
        if i == len(rows):
            yield prefix
            return
        for part in rows[i]:
            yield from rec(i + 1, prefix + part)

    return list(rec(0, ()))


# --------------------------------------------------------------------------
# Groups and element pools


def _quotient(base, kernel_gens):
    gens = [Element(base, c) for c in kernel_gens]
    return QuotientView(base, normal_closure(gens, base.generators()))


def _pool(G):
    """Every element of a finite group; a small box where a coordinate is free."""
    if G.is_finite():
        return sorted(G.iter_coords())
    if isinstance(G, QuotientView):
        return sorted({G.reduce(c) for c in _pool(G.base)})
    rows = [range(m) if m else range(-2, 3) for m in G.moduli]
    out = [()]
    for row in rows:
        out = [c + (v,) for c in out for v in row]
    return out


U3, U2 = Unitriangular(3, 3), Unitriangular(3, 2)
_CLOSURE_GROUPS = [
    FiniteAbelian((2, 3)),
    FiniteAbelian((4, 6)),
    FiniteAbelian((3, 0)),
    FiniteAbelian((0, 4)),
    Unitriangular(3, 2),
    Unitriangular(3, 3),
    Unitriangular(3, 5),
    Unitriangular(4, 2),
    _quotient(U3, [(0, 1, 0)]),
    _quotient(U2, [(0, 1, 0)]),
    _quotient(U3, [(1, 0, 0)]),
    parse_group("prod:(ab:2);(ut:3:3)"),
]
_POOLS = {G: _pool(G) for G in _CLOSURE_GROUPS}
_SMALL = 300  # budget for free factors, where a closure can be infinite


@st.composite
def _generators(draw):
    """A group and a generator list, often redundant: a whole subgroup, shuffled."""
    G = draw(st.sampled_from(_CLOSURE_GROUPS))
    pool = _POOLS[G]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    if draw(st.booleans()):
        try:
            gens = gens + list(_span_bfs(G, gens, _SMALL))
        except BudgetExceeded:
            pass
        gens = draw(st.permutations(gens))
    return G, gens


def _expect(reference, *args):
    try:
        return reference(*args)
    except BudgetExceeded:
        return BudgetExceeded


@settings(max_examples=200, deadline=None)
@given(_generators())
def test_span_matches_bfs(case):
    G, gens = case
    expected = _expect(_span_bfs, G, gens, _SMALL)
    elems = [Element(G, c) for c in gens]
    if expected is BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            span(elems, _SMALL)
        return
    H = span(elems, _SMALL)
    assert H.elements.members == expected
    assert H.generators == tuple(sorted(elems))
    assert H.is_normal is None


@settings(max_examples=200, deadline=None)
@given(_generators(), st.data())
def test_normal_closure_matches_whole_set_loop(case, data):
    G, gens = case
    # As in the pipeline, conjugate often by a generating set of the group.
    conj = data.draw(st.one_of(
        st.just(G.generator_coords()),
        st.lists(st.sampled_from(_POOLS[G]), min_size=1, max_size=4),
    ))
    expected = _expect(_normal_closure_loop, G, gens, conj, _SMALL)
    elems = [Element(G, c) for c in gens]
    conj_elems = [Element(G, c) for c in conj]
    if expected is BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            normal_closure(elems, conj_elems, _SMALL)
        return
    N = normal_closure(elems, conj_elems, _SMALL)
    assert N.elements.members == expected
    assert span(N.gen_elements(), _SMALL).elements == N.elements
    assert N.is_normal is True


def _is_normal_loop(parent, members, conj):
    """Every h of H conjugated by every g and g⁻¹ of conj stays in H."""
    mul, inv = parent.mul, parent.inv
    both = set(conj) | {inv(g) for g in conj}
    return all(mul(mul(g, h), inv(g)) in members for g in both for h in members)


@settings(max_examples=200, deadline=None)
@given(_generators(), st.data())
def test_check_normal_matches_all_conjugators_loop(case, data):
    # H is a span (often not normal) or a normal closure; the conjugators are
    # a generating set or any list, which need not hold inverses.
    G, gens = case
    conj = data.draw(st.one_of(
        st.just(G.generator_coords()),
        st.lists(st.sampled_from(_POOLS[G]), min_size=1, max_size=4),
    ))
    elems = [Element(G, c) for c in gens]
    conj_elems = [Element(G, c) for c in conj]
    try:
        if data.draw(st.booleans()):
            H = span(elems, _SMALL)
        else:
            H = normal_closure(elems, [Element(G, c) for c in _POOLS[G][:3]], _SMALL)
    except BudgetExceeded:
        return
    got = check_normal(H, conj_elems)
    assert got.is_normal is _is_normal_loop(G, H.elements.members, conj)
    assert (got.elements, got.generators) == (H.elements, H.generators)


def test_normal_closure_conjugates_what_it_adjoined():
    # In ut:4:2, e12 conjugated by e23 brings in e13, and only e13
    # conjugated by e34 brings in e14.
    U = Unitriangular(4, 2)
    e12 = (1, 0, 0, 0, 0, 0)
    N = normal_closure([Element(U, e12)], U.generators())
    assert N.elements.members == _normal_closure_loop(U, [e12], U.generator_coords(), 10_000)
    assert N.order() == 8


def test_check_normal_conjugates_the_generators_a_normal_closure_adjoined():
    # In ut:4:2, N grown from e34 under e23 also holds e24, adjoined as a
    # conjugate.  e12 commutes with e34 but moves e24 out of N, so
    # conjugating the seed alone would call N normal.
    U = Unitriangular(4, 2)
    e12, e23, e34 = (1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)
    N = normal_closure([Element(U, e34)], [Element(U, e23)])
    assert N.order() == 4 and span(N.generators).elements == N.elements
    assert U.mul(U.mul(e12, e34), U.inv(e12)) == e34
    assert check_normal(N, [Element(U, e12)]).is_normal is False
    assert check_normal(N, [Element(U, e23)]).is_normal is True


def test_closures_of_an_infinite_element_are_bounded():
    HZ = Unitriangular(3, 0)
    x = Element(HZ, (1, 0, 0))
    for H in ([x], [Element(HZ, (0, 1, 0))]):
        with pytest.raises(BudgetExceeded):
            span(H, budget=50)
        with pytest.raises(BudgetExceeded):
            normal_closure(H, HZ.generators(), budget=50)


# --------------------------------------------------------------------------
# Cyclic membership

_AB66 = FiniteAbelian((6, 6))
_AB46 = FiniteAbelian((4, 6))
_CYCLIC_CODOMAINS = [
    FiniteAbelian((7,)),
    FiniteAbelian((12,)),
    FiniteAbelian((2, 4)),
    _AB46,
    FiniteAbelian((0,)),
    FiniteAbelian((3, 0)),
    FiniteAbelian((0, 0)),
    QuotientView(_AB66, span([Element(_AB66, (2, 0))])),
    QuotientView(_AB46, span([Element(_AB46, (2, 3))])),
    QuotientView(FiniteAbelian((3, 3, 3)), span([Element(FiniteAbelian((3, 3, 3)), (1, 1, 0))])),
    QuotientView(FiniteAbelian((0, 4)), span([Element(FiniteAbelian((0, 4)), (0, 2))])),
    QuotientView(FiniteAbelian((3, 0, 6)), span([Element(FiniteAbelian((3, 0, 6)), (1, 0, 3))])),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_CYCLIC_CODOMAINS), st.data())
def test_cyclic_membership_matches_in_cyclic(G, data):
    pool = _pool(G)
    x = data.draw(st.sampled_from(pool))
    in_x = _cyclic_membership(G, x, 10_000)
    for w in pool:
        expected = _in_cyclic_walk(G, x, w)
        assert in_x(w) == expected
        assert in_cyclic(G, x, w) == expected


def _in_cyclic_search(G, x, w):
    """w = k·x for some integer k, tried over every k that can work.

    A free coordinate j with x_j ≠ 0 forces |k| ≤ |w_j|; otherwise ⟨x⟩ is
    finite and its order divides the lcm of the finite moduli.
    """
    pinned = [abs(w[j]) for j, m in enumerate(G.moduli) if m == 0 and x[j]]
    if pinned:
        ks = range(-max(pinned), max(pinned) + 1)
    else:
        ks = range(math.lcm(*(m for m in G.moduli if m)))
    return any(G.reduce(tuple(k * c for c in x)) == w for k in ks)


_FREE_CODOMAINS = [
    FiniteAbelian((0,)),
    FiniteAbelian((0, 0)),
    FiniteAbelian((3, 0)),
    FiniteAbelian((0, 4)),
    FiniteAbelian((4, 0, 6)),
    FiniteAbelian((0, 0, 5)),
]


def _box(G, r):
    return st.tuples(*[st.integers(0, m - 1) if m else st.integers(-r, r) for m in G.moduli])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FREE_CODOMAINS), st.data())
def test_free_codomain_cyclic_test_matches_exponent_search(G, data):
    x = data.draw(_box(G, 3))
    in_x = _cyclic_membership(G, x, 10_000)
    multiples = st.integers(-5, 5).map(lambda k: G.reduce(tuple(k * c for c in x)))
    ws = data.draw(st.lists(st.one_of(_box(G, 12), multiples), min_size=1, max_size=8))
    for w in ws:
        expected = _in_cyclic_search(G, x, w)
        assert in_x(w) == expected
        assert in_cyclic(G, x, w) == expected
        assert _in_cyclic_walk(G, x, w) == expected


# --------------------------------------------------------------------------
# Power chains

_POWER_GROUPS = [
    FiniteAbelian((7,)),
    FiniteAbelian((4, 6)),
    FiniteAbelian((0,)),
    FiniteAbelian((3, 0)),
    Unitriangular(3, 3),
    Unitriangular(4, 2),
    _quotient(U3, [(0, 1, 0)]),
]
_POWER_POOLS = {G: _pool(G) for G in _POWER_GROUPS}


@st.composite
def _power_case(draw, groups=_POWER_GROUPS):
    G = draw(st.sampled_from(groups))
    members = set(draw(st.lists(st.sampled_from(_POWER_POOLS[G]), min_size=1, max_size=5)))
    identity = G.identity_coords()
    if draw(st.booleans()):
        members.add(identity)
    elif len(members) > 1:
        members.discard(identity)
    return GSet(G, members, _reduced=True), draw(st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(_power_case())
def test_power_chain_matches_plain_products(case):
    A, n = case
    assert [S.members for S in power_chain(A, n)] == _power_chain_plain(A, n)


@settings(max_examples=100, deadline=None)
@given(_power_case(), st.data())
def test_containment_radius_matches_plain_chain(case, data):
    A, n = case
    G = A.parent
    chain = _power_chain_plain(A, n)
    gens = data.draw(st.lists(st.sampled_from(sorted(chain[-1])), min_size=1, max_size=2))
    radii = [
        0 if s == G.identity_coords() else min(k for k, P in enumerate(chain, 1) if s in P)
        for s in gens
    ]
    assert containment_radius(GSet(G, [gens[0]], _reduced=True), A) == radii[0]
    bounds = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    spec = ProgressionSpec(tuple(Element(G, s) for s in gens), tuple(bounds))
    assert word_radius_bound(spec, A) == sum(r * b for r, b in zip(radii, bounds))
    # containment_exponent counts from P¹, also for the identity (1 ∈ P)
    P = ordered_progression(spec)
    chain_P = _power_chain_plain(P, n)
    t = data.draw(st.sampled_from(sorted(chain_P[-1])))
    target = GSet(G, [t], _reduced=True)
    assert containment_exponent(target, spec) == min(k for k, Q in enumerate(chain_P, 1) if t in Q)


def _walk(A, n, budget):
    """The members of A¹..Aⁿ from `powers`, and the (op, needed, budget) of
    the BudgetExceeded that stopped it, if one did."""
    out = []
    try:
        for P in powers(A, budget):
            out.append(P.members)
            if len(out) == n:
                return out, None
    except BudgetExceeded as e:
        return out, (e.op, e.needed, e.budget)


def _walk_plain(A, n, budget):
    """What `_walk` gives when every power is rebuilt by a whole product:
    step k checks |A^k∖A^{k−1}|·|A| pairs with 1 ∈ A (A⁰ = {1}) and
    |A^k|·|A| without, then the size of A^{k+1}."""
    unit = A.contains_identity()
    out, prev, cur = [A.members], frozenset((A.parent.identity_coords(),)), A.members
    while len(out) < n:
        pairs = len(cur - prev if unit else cur) * len(A)
        if pairs > budget:
            return out, ("product", pairs, budget)
        nxt = product(GSet(A.parent, cur, _reduced=True), A).members
        if len(nxt) > budget:
            return out, ("product", len(nxt), budget)
        prev, cur = cur, nxt
        out.append(nxt)
    return out, None


_WALK_GROUPS = [parse_group(d) for d in ("ab:7", "ab:13", "ut:3:2", "ut:3:3", "ut:3:5")]
_POWER_POOLS.update((G, _pool(G)) for G in _WALK_GROUPS)


@settings(max_examples=200, deadline=None)
@given(_power_case(_WALK_GROUPS), st.integers(1, 10), st.integers(1, 600))
def test_replayed_walk_matches_a_fresh_walk(case, depth, budget):
    # Walk A once at a generous budget, then again under a smaller one: the
    # second walk replays the stored layers and extends them past `first`.
    A, first = case
    assert _walk(A, first, 10**6) == _walk_plain(A, first, 10**6)
    assert len(A._walk or ()) == first - 1
    got = _walk(A, depth, budget)
    assert got == _walk_plain(A, depth, budget)
    if got[1] is None:
        assert len(A._walk or ()) == max(first, depth) - 1


def test_containment_radius_reports_escape_after_stabilisation():
    Z12 = FiniteAbelian((12,))
    A = GSet(Z12, [(0,), (4,)], _reduced=True)
    one = GSet(Z12, [(1,)], _reduced=True)
    with pytest.raises(ContainmentError, match="set escapes the group generated by A"):
        containment_radius(one, A)
    with pytest.raises(ContainmentError, match="a generator escapes the group generated by A"):
        word_radius_bound(ProgressionSpec((Element(Z12, (1,)),), (1,)), A)
    with pytest.raises(ContainmentError, match="target escapes the subgroup generated by the progression"):
        containment_exponent(one, ProgressionSpec((Element(Z12, (4,)),), (1,)))
    # Without 1 the powers {4}, {8}, {0}, {4}, ... cycle and never repeat
    # one step to the next: the walk stops at A^64 instead.
    with pytest.raises(BudgetExceeded) as ei:
        containment_radius(one, GSet(Z12, [(4,)], _reduced=True))
    assert (ei.value.op, ei.value.budget) == ("containment_radius", 64)


def test_radius_walks_stop_at_power_64_when_target_escapes_on_infinite_group():
    # In Z the powers of {-2, 0, 2} grow by two elements a step and never
    # stabilise, so no per-step budget check fires; each walk stops at A^64.
    Z = parse_group("ab:0")
    A = GSet(Z, [(-2,), (0,), (2,)], _reduced=True)
    one = GSet(Z, [(1,)], _reduced=True)
    cases = [
        ("containment_radius", lambda: containment_radius(one, A)),
        ("word_radius_bound", lambda: word_radius_bound(ProgressionSpec((Element(Z, (1,)),), (1,)), A)),
        ("containment_exponent", lambda: containment_exponent(one, ProgressionSpec((Element(Z, (2,)),), (1,)))),
    ]
    for op, run in cases:
        with pytest.raises(BudgetExceeded) as ei:
            run()
        assert (ei.value.op, ei.value.budget) == (op, 64)


# --------------------------------------------------------------------------
# Commutators from the one level builder


@settings(max_examples=150, deadline=None)
@given(_generators())
def test_derived_subgroup_matches_pairwise_commutators(case):
    G, gens = case
    expected = _expect(_derived_pairwise, G, gens, _SMALL)
    elems = [Element(G, c) for c in gens]
    if expected is BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            derived_subgroup(elems, _SMALL)
        return
    D = derived_subgroup(elems, _SMALL)
    assert D.elements.members == expected
    assert span(D.gen_elements(), _SMALL).elements == D.elements
    assert D.is_normal is True


@st.composite
def _level_case(draw):
    """A generator list with 1, repeats and inverses mixed in, a depth and a
    budget small enough to stop some levels."""
    G = draw(st.sampled_from(_CLOSURE_GROUPS))
    gens = draw(st.lists(st.sampled_from(_POOLS[G]), min_size=1, max_size=4))
    for extra in draw(st.lists(st.sampled_from(["identity", "repeat", "inverse"]), max_size=4)):
        if extra == "identity":
            gens.append(G.identity_coords())
        else:
            g = draw(st.sampled_from(gens))
            gens.append(g if extra == "repeat" else G.inv(g))
    gens = draw(st.permutations(gens))
    return G, [Element(G, c) for c in gens], draw(st.integers(1, 4)), draw(st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(_level_case())
def test_commutator_levels_match_every_ordered_pair(case):
    G, gens, depth, budget = case
    try:
        expected = _levels_all_pairs(G, gens, depth, budget, "levels")
    except BudgetExceeded as e:
        expected = (e.op, e.needed)
    try:
        got = _commutator_levels(G, gens, depth, budget, "levels")
    except BudgetExceeded as e:
        got = (e.op, e.needed)
    assert got == expected


@st.composite
def _views(draw):
    """ut:3:p over its centre or over {1}; ut:4:2 over a drawn normal subgroup."""
    base = draw(st.sampled_from([U2, U3, Unitriangular(3, 5), Unitriangular(4, 2)]))
    if base.n == 3:
        kernel = draw(st.sampled_from([[(0, 1, 0)], [(0, 0, 0)]]))
    else:
        kernel = draw(st.lists(st.sampled_from(_POOLS[base]), min_size=1, max_size=2))
    return _quotient(base, kernel)


@settings(max_examples=60, deadline=None)
@given(_views())
def test_quotient_is_abelian_matches_generator_pairs(q):
    assert q.is_abelian() == _is_abelian_pairs(q)


@settings(max_examples=150, deadline=None)
@given(_generators())
def test_step_of_generated_matches_lower_central_series(case):
    G, gens = case
    try:
        H = span([Element(G, c) for c in gens], _SMALL)
    except BudgetExceeded:
        return  # an infinite span: the series needs enumerated terms
    assert step_of_generated(H.gen_elements(), _SMALL) == _step_lcs(H, _SMALL)


_FINITE_BACKENDS = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda ms: FiniteAbelian(tuple(ms))),
    st.sampled_from([U2, U3, Unitriangular(4, 2), parse_group("prod:(ab:2);(ut:3:3)")]),
    st.tuples(
        st.sampled_from([FiniteAbelian((2,)), FiniteAbelian((3, 1)), U2]),
        st.sampled_from([FiniteAbelian((2, 3)), U2]),
    ).map(DirectProduct),
)


@settings(max_examples=60, deadline=None)
@given(_FINITE_BACKENDS)
def test_iter_coords_matches_nested_recursion(G):
    assert list(G.iter_coords()) == _iter_coords_nested(G)


# --------------------------------------------------------------------------
# The growth law on the power walk


@settings(max_examples=100, deadline=None)
@given(_power_case())
def test_growth_law_matches_product_chain(case):
    A, n = case
    cert = greedy_cover_certificate(symmetrize(A))
    assert growth_law(cert, n) == _growth_rows_plain(cert, n)


def test_growth_law_after_the_powers_stabilise():
    # {0, ±(0,1), (1,0)} fills Z2 x Z3 at A^2, so A^3..A^5 repeat it.
    G = FiniteAbelian((2, 3))
    cert = greedy_cover_certificate(GSet(G, [(0, 0), (1, 0), (0, 1), (0, 2)], _reduced=True))
    rows = growth_law(cert, 5)
    assert [r.size for r in rows] == [4, 6, 6, 6, 6]
    assert rows == _growth_rows_plain(cert, 5)
