"""Specialised backend kernels pinned to a plain per-coordinate reference.

Each base backend states its law as a table, and `growthlab.groups`
derives the rest from it.  `ut:n:m` and `prod:` descriptors run
straight-line code that `_law_kernels` compiles once per law; `ab:`
descriptors keep hand-written `mul`/`inv`.  A `QuotientView` whose kernel
is every tuple supported on a closed set Z of coordinates runs the code
generated from its base's table with modulus 1 on Z, which writes Z's
entries as 0; with any other kernel its `reduce` reduces in the base and
fills its cache a whole coset at a time.
The functions below are plain implementations written from each backend's
definition; every fast path must agree with them on arbitrary integer
input, including entries far beyond 64 bits, and for every n the
descriptor parser accepts, since each n has its own generated code.  The
row kernels `left_row` and `right_row` must return exactly the list of
single products, in order.
"""
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import DirectProduct, Element, FiniteAbelian, Unitriangular, parse_group
from growthlab.groups import _law_kernels
from growthlab.gset import GSet
from growthlab.subgroups import (
    QuotientView,
    _commutator_levels,
    derived_subgroup,
    normal_closure,
    quotient_project,
    span,
)
from growthlab.textio import MAX_ARITY


# --------------------------------------------------------------------------
# Reference implementations


def _reduce_mod(c: int, m: int) -> int:
    return c % m if m > 0 else c


def ref_abelian_reduce(G: FiniteAbelian, coords):
    return tuple(_reduce_mod(c, m) for c, m in zip(coords, G.moduli))


def ref_abelian_mul(G: FiniteAbelian, a, b):
    return tuple(_reduce_mod(x + y, m) for x, y, m in zip(a, b, G.moduli))


def ref_abelian_inv(G: FiniteAbelian, a):
    return tuple(_reduce_mod(-x, m) for x, m in zip(a, G.moduli))


def ref_ut_reduce(G: Unitriangular, coords):
    return tuple(_reduce_mod(c, G.modulus) for c in coords)


def ref_ut_mul(G: Unitriangular, a, b):
    m = G.modulus
    idx = G.pos_index
    out = []
    for k, (i, j) in enumerate(G.positions):
        v = a[k] + b[k]
        for t in range(i + 1, j):
            v += a[idx[(i, t)]] * b[idx[(t, j)]]
        out.append(_reduce_mod(v, m))
    return tuple(out)


def ref_ut_inv(G: Unitriangular, a):
    # Solve (I + a)(I + e) = I entry by entry, shortest gaps first.
    m = G.modulus
    idx = G.pos_index
    e: dict[tuple[int, int], int] = {}
    for gap in range(1, G.n):
        for i in range(G.n - gap):
            j = i + gap
            v = -a[idx[(i, j)]]
            for t in range(i + 1, j):
                v -= a[idx[(i, t)]] * e[(t, j)]
            e[(i, j)] = _reduce_mod(v, m)
    return tuple(e[p] for p in G.positions)


def ref_product_mul(G, a, b):
    """Factor by factor: slice, multiply by the factor's reference, concatenate."""
    out = ()
    for f, off in zip(G.factors, G.offsets):
        out += ref_mul(f, a[off:off + f.arity], b[off:off + f.arity])
    return out


def ref_product_inv(G, a):
    out = ()
    for f, off in zip(G.factors, G.offsets):
        out += ref_inv(f, a[off:off + f.arity])
    return out


def ref_reduce(G, coords):
    if isinstance(G, DirectProduct):
        return sum((ref_reduce(f, coords[off:off + f.arity]) for f, off in zip(G.factors, G.offsets)), ())
    return ref_ut_reduce(G, coords) if isinstance(G, Unitriangular) else ref_abelian_reduce(G, coords)


def ref_mul(G, a, b):
    if isinstance(G, DirectProduct):
        return ref_product_mul(G, a, b)
    return ref_ut_mul(G, a, b) if isinstance(G, Unitriangular) else ref_abelian_mul(G, a, b)


def ref_inv(G, a):
    if isinstance(G, DirectProduct):
        return ref_product_inv(G, a)
    return ref_ut_inv(G, a) if isinstance(G, Unitriangular) else ref_abelian_inv(G, a)


def ref_quotient_reduce(q: QuotientView, coords):
    """Reduce in the base first, then take the least coset member."""
    c = ref_reduce(q.base, tuple(coords))
    return min(ref_mul(q.base, c, k) for k in q.kernel.elements.members)


def ref_layout(G):
    """(arity, abelian_coords, is_abelian, order, an iterator over the group
    or None) by each backend's own rule."""
    if isinstance(G, FiniteAbelian):
        finite = 0 not in G.moduli
        walk = itertools.product(*(range(m) for m in G.moduli)) if finite else None
        return len(G.moduli), tuple(range(len(G.moduli))), True, math.prod(G.moduli) if finite else None, walk
    if isinstance(G, Unitriangular):
        k, m = G.n * (G.n - 1) // 2, G.modulus
        superdiagonal = tuple(G.pos_index[(i, i + 1)] for i in range(G.n - 1))
        return k, superdiagonal, G.n == 2, m**k if m else None, itertools.product(range(m), repeat=k) if m else None
    parts = [ref_layout(f) for f in G.factors]
    offsets = [sum(p[0] for p in parts[:i]) for i in range(len(parts))]
    orders = [p[3] for p in parts]
    order = None if None in orders else math.prod(orders)
    walk = None if order is None else (sum(c, ()) for c in itertools.product(*(p[4] for p in parts)))
    abelian = tuple(off + k for p, off in zip(parts, offsets) for k in p[1])
    return sum(p[0] for p in parts), abelian, all(p[2] for p in parts), order, walk


# --------------------------------------------------------------------------
# Strategies

_UT_NS = st.sampled_from([n for n in range(2, 10) if n * (n - 1) // 2 <= MAX_ARITY])
_small = st.integers(-50, 50)
_wide = st.one_of(_small, st.integers(-(2**80), 2**80), st.integers(2**63, 2**70))


def _coords(arity: int, ints=_wide):
    return st.tuples(*([ints] * arity))


@st.composite
def _abelian_case(draw, one_coordinate: bool):
    if one_coordinate:
        moduli = (draw(st.sampled_from((0, 1, 2, 7, 101))),)
    else:
        moduli = tuple(draw(st.lists(st.sampled_from((0, 1, 2, 3, 12, 101)), min_size=2, max_size=4)))
    G = FiniteAbelian(moduli)
    return G, draw(_coords(G.arity)), draw(_coords(G.arity))


@st.composite
def _ut_case(draw):
    G = Unitriangular(draw(_UT_NS), draw(st.sampled_from((0, 2, 7))))
    return G, draw(_coords(G.arity)), draw(_coords(G.arity))


# --------------------------------------------------------------------------
# Properties


@settings(max_examples=300)
@given(_abelian_case(one_coordinate=True))
def test_abelian_one_coordinate_matches_reference(case):
    G, a, b = case
    assert G.reduce(a) == ref_abelian_reduce(G, a)
    assert G.mul(a, b) == ref_abelian_mul(G, a, b)
    assert G.inv(a) == ref_abelian_inv(G, a)


@settings(max_examples=300)
@given(_abelian_case(one_coordinate=False))
def test_abelian_mixed_factors_match_reference(case):
    G, a, b = case
    assert G.reduce(a) == ref_abelian_reduce(G, a)
    assert G.reduce(list(a)) == ref_abelian_reduce(G, a)
    assert G.mul(a, b) == ref_abelian_mul(G, a, b)
    assert G.inv(a) == ref_abelian_inv(G, a)


@settings(max_examples=400)
@given(_ut_case())
def test_unitriangular_matches_reference(case):
    G, a, b = case
    assert G.reduce(a) == ref_ut_reduce(G, a)
    assert G.reduce(list(a)) == ref_ut_reduce(G, a)
    assert G.mul(a, b) == ref_ut_mul(G, a, b)
    assert G.inv(a) == ref_ut_inv(G, a)
    ca, cb = G.reduce(a), G.reduce(b)
    assert G.mul(ca, cb) == ref_ut_mul(G, ca, cb)
    assert G.mul(ca, G.inv(ca)) == G.identity_coords()


def ref_first_seen(q: QuotientView) -> list:
    """Each coset's least member, in the order a walk of the base meets the
    coset first; that first member is its least, as the walk is sorted."""
    seen, out = set(), []
    for c in q.base.iter_coords():
        if c not in seen:
            coset = [ref_mul(q.base, c, k) for k in q.kernel.elements.members]
            seen.update(coset)
            out.append(min(coset))
    return out


def _diagonal(U):
    """{(a, c, a)} in ut:3:p: normal, as it holds γ₂, yet p² < p³ = m^|support|."""
    return span([U.element((1, 0, 1)), U.element((0, 1, 0))])


def _between(U4):
    """{x ∈ γ₂ of ut:4:2 : x₀₂ = x₁₃}: normal, as it holds γ₃, but no coordinate kernel."""
    return normal_closure([U4.element((0, 1, 0, 0, 1, 0)), U4.element((0, 0, 1, 0, 0, 0))], U4.generators())


def _quotients():
    H5 = Unitriangular(3, 5)
    U4 = Unitriangular(4, 2)
    return (QuotientView(H5, _diagonal(H5)), QuotientView(U4, _between(U4)))


_QUOTIENTS = _quotients()


@settings(max_examples=200)
@given(st.sampled_from(range(len(_QUOTIENTS))), st.data())
def test_quotient_reduce_matches_base_reduce_first(which, data):
    q = _QUOTIENTS[which]
    assert q._kernels is None
    raw = data.draw(_coords(q.arity, st.integers(-40, 40)))
    expected = ref_quotient_reduce(q, raw)
    assert q.reduce(list(raw)) == expected
    assert q._rep_cache  # the coset met is filed
    assert q.reduce(raw) == expected
    # Canonical input (a cache hit after the line above) gives the same answer.
    assert q.reduce(q.base.reduce(raw)) == expected
    assert q.reduce(expected) == expected
    # The cache is keyed by canonical base coordinates only.
    assert all(q.base.reduce(key) == key for key in q._rep_cache)


def _coset_fill_views():
    """(base, kernel) of quotients of ut:3:p and ut:4:2 that keep the coset
    cache, built fresh per example."""
    out = []
    for p in (2, 3, 5):
        U = Unitriangular(3, p)
        out.append((U, _diagonal(U)))
        out.append((U, span([U.element((1, 0, 0))])))  # not normal: cosets still exact
    U4 = Unitriangular(4, 2)
    out.append((U4, _between(U4)))
    out.append((U4, span([U4.element((1, 0, 0, 0, 0, 0))])))
    return out


_FILL_VIEWS = _coset_fill_views()


@settings(max_examples=150)
@given(st.sampled_from(range(len(_FILL_VIEWS))), st.data())
def test_quotient_coset_fill_matches_reference(which, data):
    base, kernel = _FILL_VIEWS[which]
    q = QuotientView(base, kernel)
    assert q._kernels is None
    raws = data.draw(st.lists(_coords(q.arity, st.integers(-40, 40)), min_size=1, max_size=6))
    for raw in raws:
        assert q.reduce(raw) == ref_quotient_reduce(q, raw)
    # Every cached entry is the least member of its key's coset, and every
    # coset met is cached whole.
    cache = q._rep_cache
    assert cache
    for key, rep in cache.items():
        assert rep == ref_quotient_reduce(q, key)
    assert len(cache) == len(kernel.elements) * len(set(cache.values()))


def _coordinate_views():
    """Quotients of ut:3:{2,3,5,7}, ut:4:{2,3} and ut:5:2 by every coordinate
    kernel met in decompositions: G = γ₁, each γ_k down to the centre, and
    the normal closure of e₁₂."""
    out = []
    for n, ms in ((3, (2, 3, 5, 7)), (4, (2, 3)), (5, (2,))):
        for m in ms:
            U = Unitriangular(n, m)
            gens = U.generators()
            levels = _commutator_levels(U, gens, n - 1, 10**6, "gamma")
            kernels = [span(gens)] + [normal_closure([Element(U, c) for c in lv], gens) for lv in levels[1:]]
            kernels.append(normal_closure([gens[0]], gens))
            out += [QuotientView(U, K) for K in kernels]
    return out


_COORDINATE_VIEWS = _coordinate_views()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(_COORDINATE_VIEWS))), st.data())
def test_coordinate_quotient_law_matches_reference(which, data):
    q = _COORDINATE_VIEWS[which]
    U = q.base
    assert q._kernels is not None
    a, b = data.draw(_coords(q.arity)), data.draw(_coords(q.arity))
    xs = data.draw(st.lists(_coords(q.arity), max_size=4))

    def ref(c):
        return ref_quotient_reduce(q, c)

    assert q.reduce(a) == q.reduce(list(a)) == ref(a)
    assert q.mul(a, b) == ref(ref_ut_mul(U, a, b))
    assert q.inv(a) == ref(ref_ut_inv(U, a))
    assert q.left_row(a, xs) == [ref(ref_ut_mul(U, a, x)) for x in xs]
    assert q.right_row(xs, b) == [ref(ref_ut_mul(U, x, b)) for x in xs]
    assert not q._rep_cache


def test_quotient_enumeration_is_first_seen_order():
    for q in _COORDINATE_VIEWS + list(_QUOTIENTS):
        assert list(q.iter_coords()) == ref_first_seen(q)


def _span_of(text, *gens):
    G = parse_group(text)
    return G, span([G.element(g) for g in gens])


def _non_ut_views():
    """(base, kernel, whether it is a coordinate kernel) over ab: and prod:
    bases, and over infinite bases by kernels whose coordinates are finite."""
    return (
        (*_span_of("ut:3:0", (0, 0, 0)), True),  # the trivial kernel: Z = ∅
        (*_span_of("prod:(ut:3:0);(ab:5)", (0, 0, 0, 1)), True),  # the ab:5 factor
        (*_span_of("ab:4,6", (0, 1)), True),
        (*_span_of("prod:(ab:4);(ut:3:3)", (0, 0, 1, 0)), True),  # the ut centre
        (*_span_of("prod:(ut:3:2);(ut:3:3)", (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)), True),  # both centres
        (*_span_of("ab:4,6", (2, 0)), False),  # |K| = 2 < 4
        (*_span_of("ab:5,5", (1, 1)), False),  # the diagonal: |K| = 5 < 25
        # ⟨e₂₃⟩ is all of its coordinate, but the corner's pair e₁₂·e₂₃ reads it.
        (*_span_of("prod:(ab:2);(ut:3:3)", (0, 0, 0, 1)), False),
    )


_NON_UT_VIEWS = _non_ut_views()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(range(len(_NON_UT_VIEWS))), st.data())
def test_quotients_of_abelian_and_product_bases_match_reference(which, data):
    base, kernel, coordinate = _NON_UT_VIEWS[which]
    q = QuotientView(base, kernel)  # a fresh, cold cache
    assert (q._kernels is not None) == coordinate
    a, b = data.draw(_coords(q.arity)), data.draw(_coords(q.arity))
    xs = data.draw(st.lists(_coords(q.arity), max_size=4))

    def ref(c):
        return ref_quotient_reduce(q, c)

    assert q.reduce(a) == q.reduce(list(a)) == ref(a)
    assert q.mul(a, b) == ref(ref_mul(base, a, b))
    assert q.inv(a) == ref(ref_inv(base, a))
    assert q.left_row(a, xs) == [ref(ref_mul(base, a, x)) for x in xs]
    assert q.right_row(xs, b) == [ref(ref_mul(base, x, b)) for x in xs]
    if base.is_finite():
        assert list(q.iter_coords()) == ref_first_seen(q)
    else:
        with pytest.raises(ValueError):
            list(q.iter_coords())


def test_trivial_quotient_shares_members_and_runs_the_base_law():
    for U in (Unitriangular(3, 0), Unitriangular(3, 5)):
        q = QuotientView(U, span([U.element((0, 0, 0))]))
        assert all(f is g for f, g in zip(q._kernels, U._kernels))
        A = GSet(U, [(0, 0, 0), (1, 2, 3), (-1, 0, 4), (2, -3, 1)])
        image = quotient_project(q, A)
        assert image.parent == q and image.members is A.members
        a, b = (1, 2, 3), (4, -5, 6)
        assert q.mul(a, b) == U.mul(a, b) and q.inv(a) == U.inv(a)
        assert q.reduce([1, 2, 3]) == U.reduce((1, 2, 3))
        assert q.left_row(a, list(A.members)) == U.left_row(a, list(A.members))
        assert not q._rep_cache


_PRODUCTS = (
    parse_group("prod:(ab:2);(ut:3:3)"),
    parse_group("prod:(ab:0,5);(ut:3:0);(ut:4:2)"),
    parse_group("prod:(ab:1);(ut:3:3)"),  # a genuine modulus-1 coordinate
)


@settings(max_examples=300)
@given(st.sampled_from(_PRODUCTS), st.data())
def test_direct_product_matches_per_factor_loop(G, data):
    a, b = data.draw(_coords(G.arity)), data.draw(_coords(G.arity))
    assert G.mul(a, b) == ref_product_mul(G, a, b)
    assert G.inv(a) == ref_product_inv(G, a)
    ca, cb = G.reduce(a), G.reduce(b)
    assert G.mul(ca, cb) == ref_product_mul(G, ca, cb)
    assert G.mul(ca, G.inv(ca)) == G.identity_coords()


_small_groups = st.one_of(
    st.lists(st.sampled_from((0, 1, 2, 3)), min_size=1, max_size=3).map(lambda ms: FiniteAbelian(tuple(ms))),
    st.builds(Unitriangular, st.integers(2, 4), st.sampled_from((0, 1, 2, 3))),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_small_groups, st.lists(_small_groups, min_size=2, max_size=3).map(lambda fs: DirectProduct(tuple(fs)))))
def test_derived_layout_matches_per_backend_rules(G):
    arity, abelian, is_abelian, order, walk = ref_layout(G)
    assert G.arity == arity and G.identity_coords() == (0,) * arity
    assert G.abelian_coords == abelian
    assert G.is_abelian() is is_abelian
    assert G.order() == order and G.is_finite() is (order is not None)
    if walk is None:
        with pytest.raises(ValueError):
            G.iter_coords()
    else:
        assert list(itertools.islice(G.iter_coords(), 3000)) == list(itertools.islice(walk, 3000))


# --------------------------------------------------------------------------
# Row kernels: left_row(a, bs) = [a·b for b in bs], right_row(as_, b) = [a·b for a in as_]


def _assert_rows(G, a, b, xs):
    assert G.left_row(a, xs) == [G.mul(a, x) for x in xs]
    assert G.right_row(xs, b) == [G.mul(x, b) for x in xs]


@st.composite
def _row_case(draw, group):
    G = draw(group)
    xs = draw(st.lists(_coords(G.arity), max_size=6))
    return G, draw(_coords(G.arity)), draw(_coords(G.arity)), xs


_ut_groups = st.builds(Unitriangular, _UT_NS, st.sampled_from((0, 2, 7)))
_ab_groups = st.lists(st.sampled_from((0, 1, 2, 3, 12, 101)), min_size=1, max_size=4).map(
    lambda ms: FiniteAbelian(tuple(ms))
)


@settings(max_examples=200)
@given(_row_case(_ut_groups))
def test_unitriangular_rows_match_mul(case):
    _assert_rows(*case)


@settings(max_examples=200)
@given(_row_case(st.one_of(_ab_groups, st.sampled_from(_PRODUCTS[:1]))))
def test_abelian_and_product_rows_match_mul(case):
    _assert_rows(*case)


@settings(max_examples=150)
@given(st.sampled_from((3, 5, 7)), st.booleans(), st.data())
def test_quotient_rows_match_reference_cold_and_warm(p, warm, data):
    U = Unitriangular(3, p)
    q = QuotientView(U, _diagonal(U))  # a fresh, cold cache
    canonical = _coords(3, st.integers(0, p - 1))
    a, b = data.draw(canonical), data.draw(canonical)
    xs = data.draw(st.lists(canonical, max_size=8))
    if warm:  # every other entry of each row hits the cache, the rest may miss
        for x in xs[::2]:
            q.mul(a, x)
            q.mul(x, b)
    assert q.left_row(a, xs) == [ref_quotient_reduce(q, ref_ut_mul(U, a, x)) for x in xs]
    assert q.right_row(xs, b) == [ref_quotient_reduce(q, ref_ut_mul(U, x, b)) for x in xs]


def test_rows_of_empty_and_singleton_operands():
    U = Unitriangular(3, 5)
    q = QuotientView(U, derived_subgroup(U.generators()))
    for G in (U, Unitriangular(3, 0), Unitriangular(4, 2), FiniteAbelian((0, 7)), _PRODUCTS[0], q):
        x, y = G.generator_coords()[0], G.generator_coords()[-1]
        assert G.left_row(x, []) == [] and G.right_row([], y) == []
        assert G.left_row(x, [y]) == [G.mul(x, y)]
        assert G.right_row([x], y) == [G.mul(x, y)]
        assert G.left_row(x, frozenset([y])) == [G.mul(x, y)]


def test_kernels_stay_class_level_and_tables_stay_out_of_equality():
    # Tracing wraps the class attributes, so instances must not shadow them.
    G = Unitriangular(4, 0)
    assert G.mul((1,) * 6, (2,) * 6) == ref_ut_mul(G, (1,) * 6, (2,) * 6)
    fresh = Unitriangular(4, 0)
    assert G == fresh and hash(G) == hash(fresh)
    P = _PRODUCTS[0]
    assert P.mul(P.identity_coords(), P.identity_coords()) == P.identity_coords()
    assert P == parse_group("prod:(ab:2);(ut:3:3)") and hash(P) == hash(parse_group("prod:(ab:2);(ut:3:3)"))
    for obj in (G, FiniteAbelian((5,)), _QUOTIENTS[0], _COORDINATE_VIEWS[0], P):
        assert "mul" not in vars(obj) and "inv" not in vars(obj)


def test_equal_descriptors_share_one_compiled_law_and_pickle_after_use():
    G, twin = Unitriangular(4, 3), parse_group("ut:4:3")
    assert G.mul((1,) * 6, (2,) * 6) == ref_ut_mul(G, (1,) * 6, (2,) * 6)
    assert twin.inv((1,) * 6) == ref_ut_inv(twin, (1,) * 6)
    assert all(f is g for f, g in zip(G._kernels, twin._kernels))
    P, ptwin = _PRODUCTS[1], parse_group("prod:(ab:0,5);(ut:3:0);(ut:4:2)")
    x, y = tuple(range(1, 12)), tuple(range(3, 14))
    assert P.mul(x, y) == ref_product_mul(P, x, y) and ptwin.inv(x) == ref_product_inv(P, x)
    assert all(f is g for f, g in zip(P._kernels, ptwin._kernels))
    for D, a, b in ((G, (1,) * 6, (2,) * 6), (P, x, y)):
        back = pickle.loads(pickle.dumps(D))
        assert back == D and back.mul(a, b) == D.mul(a, b)
        assert not any(callable(v) for v in vars(D).values())


def test_compiled_law_cache_is_bounded():
    size = _law_kernels.cache_info().maxsize
    for m in range(2, size + 12):  # more distinct laws than the cache holds
        U = Unitriangular(3, m)
        assert U.mul((1, 1, 1), (1, 1, 1)) == ref_ut_mul(U, (1, 1, 1), (1, 1, 1))
    assert _law_kernels.cache_info().currsize == size
