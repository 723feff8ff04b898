"""Specialised backend kernels pinned to a plain per-coordinate reference.

The backends in `growthlab.groups` specialise `reduce`/`mul`/`inv` per
descriptor (one-coordinate abelian groups, straight-line UT(3), a
precomputed index-pair table for larger n, precomputed factor slices for
direct products), and `QuotientView.reduce` fills its cache a whole coset
at a time.  The functions below are the generic implementations they
replaced; every fast path must agree with them on arbitrary integer input,
including entries far beyond 64 bits.  The row kernels `left_row` and
`right_row` must return exactly the list of single products, in order.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import FiniteAbelian, Unitriangular, parse_group
from growthlab.subgroups import QuotientView, derived_subgroup, normal_closure, span


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
    """The generic per-factor loop: slice, multiply in the factor, concatenate."""
    out = ()
    for f, off in zip(G.factors, G.offsets):
        out += f.mul(a[off:off + f.arity], b[off:off + f.arity])
    return out


def ref_product_inv(G, a):
    out = ()
    for f, off in zip(G.factors, G.offsets):
        out += f.inv(a[off:off + f.arity])
    return out


def ref_quotient_reduce(q: QuotientView, coords):
    """Reduce in the base first, then take the least coset member."""
    c = ref_ut_reduce(q.base, tuple(coords))
    return min(ref_ut_mul(q.base, c, k) for k in q.kernel.elements.members)


# --------------------------------------------------------------------------
# Strategies

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
    G = Unitriangular(draw(st.sampled_from((2, 3, 4, 5))), draw(st.sampled_from((0, 2, 7))))
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


def _quotients():
    H5 = Unitriangular(3, 5)
    U4 = Unitriangular(4, 2)
    x = U4.element((1, 0, 0, 0, 0, 0))
    return (
        QuotientView(H5, derived_subgroup(H5.generators())),
        QuotientView(U4, normal_closure(span([x]), U4.generators())),
    )


_QUOTIENTS = _quotients()


@settings(max_examples=200)
@given(st.sampled_from(range(len(_QUOTIENTS))), st.data())
def test_quotient_reduce_matches_base_reduce_first(which, data):
    q = _QUOTIENTS[which]
    raw = data.draw(_coords(q.arity, st.integers(-40, 40)))
    expected = ref_quotient_reduce(q, raw)
    assert q.reduce(list(raw)) == expected
    assert q.reduce(raw) == expected
    # Canonical input (a cache hit after the line above) gives the same answer.
    assert q.reduce(q.base.reduce(raw)) == expected
    assert q.reduce(expected) == expected
    # The cache is keyed by canonical base coordinates only.
    assert all(q.base.reduce(key) == key for key in q._rep_cache)


def _coset_fill_views():
    """(base, kernel) of quotients of ut:3:p and ut:4:2, built fresh per example."""
    out = []
    for p in (2, 3, 5):
        U = Unitriangular(3, p)
        out.append((U, derived_subgroup(U.generators())))
        out.append((U, span([U.element((1, 0, 0))])))  # not normal: cosets still exact
    U4 = Unitriangular(4, 2)
    out.append((U4, normal_closure(span([U4.element((1, 0, 0, 0, 0, 0))]), U4.generators())))
    out.append((U4, derived_subgroup(U4.generators())))
    return out


_FILL_VIEWS = _coset_fill_views()


@settings(max_examples=150)
@given(st.sampled_from(range(len(_FILL_VIEWS))), st.data())
def test_quotient_coset_fill_matches_reference(which, data):
    base, kernel = _FILL_VIEWS[which]
    q = QuotientView(base, kernel)
    raws = data.draw(st.lists(_coords(q.arity, st.integers(-40, 40)), min_size=1, max_size=6))
    for raw in raws:
        assert q.reduce(raw) == ref_quotient_reduce(q, raw)
    # Every cached entry is the least member of its key's coset, and every
    # coset met is cached whole.
    cache = q._rep_cache
    for key, rep in cache.items():
        assert rep == ref_quotient_reduce(q, key)
    assert len(cache) == len(kernel.elements) * len(set(cache.values()))


_PRODUCTS = (parse_group("prod:(ab:2);(ut:3:3)"), parse_group("prod:(ab:0,5);(ut:3:0);(ut:4:2)"))


@settings(max_examples=300)
@given(st.sampled_from(_PRODUCTS), st.data())
def test_direct_product_matches_per_factor_loop(G, data):
    a, b = data.draw(_coords(G.arity)), data.draw(_coords(G.arity))
    assert G.mul(a, b) == ref_product_mul(G, a, b)
    assert G.inv(a) == ref_product_inv(G, a)
    ca, cb = G.reduce(a), G.reduce(b)
    assert G.mul(ca, cb) == ref_product_mul(G, ca, cb)
    assert G.mul(ca, G.inv(ca)) == G.identity_coords()


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


_ut_groups = st.builds(Unitriangular, st.sampled_from((2, 3, 4, 5)), st.sampled_from((0, 2, 7)))
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
    q = QuotientView(U, derived_subgroup(U.generators()))  # a fresh, cold cache
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
    for obj in (G, FiniteAbelian((5,)), _QUOTIENTS[0], P):
        assert "mul" not in vars(obj) and "inv" not in vars(obj)
