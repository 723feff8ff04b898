"""Certificates, growth law, slicing, sumset tables, and mapped images.

A slice certificate is proved by its own translate scan and never builds
C·S; `ref_slice_certificate` is the plain scan followed by `certify`, and a
hypothesis property pins the fast path to it.  A full slice takes its square
from A's walk; `ref_square_by_the_slice_walk` squares every slice by its own
walk.  The slicing cover shares that scan and never multiplies out its core;
`ref_slicing_cover` is the plain double loop followed by that product, and a
hypothesis property pins the cover to it.  The scan moves each hit by one
row; `ref_slice_scan` takes one `mul` per element.  The sumset table reads
mA from A's walk; `ref_sumset_table` multiplies every cell out under the
same pair count.  `ref_triple_hom`, `ref_image_certificate` and
`ref_greedy_witness` are the triple loop, the per-witness split search and
the full rescan that the pair table, the one split scan and the lazy heap
replace.
"""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthlab import (
    ApproxCertificate,
    BudgetExceeded,
    CertificateError,
    Element,
    FiniteAbelian,
    GrowthLabError,
    GSet,
    NotAbelian,
    PartialMap,
    QuotientView,
    Unitriangular,
    certify,
    doubling_constant,
    greedy_cover_certificate,
    growth_law,
    heisenberg,
    image_certificate,
    is_centred_triple_hom,
    normal_closure,
    power,
    predicate_slice_certificate,
    product,
    slicing_cover,
    span,
    sumset_growth_table,
    symmetrize,
)
from growthlab.approx import _slice_scan
from growthlab.recipes import generate_example
from growthlab.scenarios import _build_partial_map
from growthlab.textio import parse_group

Z101 = FiniteAbelian((101,))


def _interval(L, n=101):
    parent = FiniteAbelian((n,))
    return GSet(parent, [parent.reduce((c,)) for c in range(-L, L + 1)], _reduced=True)


def test_interval_is_two_approximate():
    A = _interval(10)
    X = GSet(Z101, [(91,), (10,)], _reduced=True)  # -10 and +10
    cert = certify(A, X)
    assert cert.K_upper == 2
    assert cert.K_lower == Fraction(41, 21)
    assert doubling_constant(A) == Fraction(41, 21)


def test_certify_rejects_bad_witness():
    A = _interval(10)
    with pytest.raises(CertificateError):
        certify(A, GSet(Z101, [(0,)], _reduced=True))
    with pytest.raises(CertificateError):
        # asymmetric input is not certifiable
        certify(
            GSet(Z101, [(0,), (1,)], _reduced=True),
            GSet(Z101, [(0,), (1,)], _reduced=True),
        )


def test_greedy_certificate_and_growth_law():
    A = generate_example("random-symmetric ab:101 size=21 seed=7")
    cert = greedy_cover_certificate(A)
    assert cert.K_upper == 8
    assert cert.K_lower == Fraction(13, 3)
    assert cert.witness <= _pow(A, 2)
    rows = growth_law(cert, 5)
    assert [r.power for r in rows] == [1, 2, 3, 4, 5]
    for r in rows:
        assert r.within and r.size <= r.bound
        assert r.bound == cert.K_upper ** (r.power - 1) * len(A)


def test_slicing_cover_bound():
    A = generate_example("random-symmetric ab:101 size=21 seed=7")
    B = generate_example("random-symmetric ab:101 size=9 seed=8")
    ca, cb = greedy_cover_certificate(A), greedy_cover_certificate(B)
    sc = slicing_cover(ca, cb, 2, 2)
    assert sc.count <= sc.bound == ca.K_upper ** 1 * cb.K_upper ** 1
    sc32 = slicing_cover(ca, cb, 3, 2)
    assert sc32.count <= sc32.bound == ca.K_upper ** 2 * cb.K_upper ** 1


def test_predicate_and_subgroup_slices():
    parent = FiniteAbelian((12, 12))
    A = symmetrize(
        GSet(parent, [(1, 0), (0, 1), (4, 0), (0, 4)], _reduced=True)
    )
    cert = greedy_cover_certificate(A)
    H = span([Element(parent, (4, 0)), Element(parent, (0, 4))])
    sliced = predicate_slice_certificate(cert, lambda c: c in H.elements.members)
    assert sliced.aset <= _pow(A, 2)
    assert all(c in H for c in sliced.aset.elements())
    assert sliced.K_upper <= cert.K_upper ** 3


def test_non_subgroup_predicate_fails_at_the_square_check():
    # P = {-1, 0, 1} in Z_101 is no subgroup.  Its scan covers T = P by the
    # witness 0, but S² = {-2, ..., 2} leaves T, and C·S = P misses ±2.
    A = _interval(1)
    cert = greedy_cover_certificate(A)
    with pytest.raises(CertificateError, match="slice square"):
        predicate_slice_certificate(cert, A.members.__contains__)
    with pytest.raises(CertificateError):
        certify(A, GSet(A.parent, [(0,)]))


def test_slice_scan_covers_each_element_through_the_slice():
    # P = {0, -3, -4} in Z_13 is no subgroup, yet S = A² ∩ P = {0} has
    # S² ⊆ P, so the square check passes and only the scan keeps the
    # certificate true: -3 and -4 share a translate u·A, but neither covers
    # the other through S, so each is its own witness.
    A = _interval(1, 13)
    cert = greedy_cover_certificate(A)
    P = {(0,), (9,), (10,)}
    got = predicate_slice_certificate(cert, P.__contains__)
    assert got.witness.members == frozenset(P)
    assert got == certify(got.aset, got.witness)


def test_slice_certificate_keeps_the_square_guard():
    A = _interval(3)
    cert = greedy_cover_certificate(A)
    A2 = power(A, 2)
    n = len(A2) ** 2  # the slice is all of A², as the predicate holds everywhere
    with pytest.raises(BudgetExceeded) as ei:
        predicate_slice_certificate(cert, lambda c: True, n - 1)
    assert (ei.value.op, ei.value.needed) == ("product", n)
    assert predicate_slice_certificate(cert, lambda c: True, n).aset == A2


def test_sumset_growth_table():
    A = generate_example("random-symmetric ab:101 size=13 seed=5")
    K, rows = sumset_growth_table(A, 4, 4)
    assert K == doubling_constant(A)
    seen = {(r.m, r.n) for r in rows}
    assert (4, 4) in seen and (1, 1) in seen and (2, 0) in seen
    for r in rows:
        if r.m + r.n <= 5:
            assert r.within


def test_sumset_table_counts_every_product_against_budget():
    # Each product of a 9-element set in ab:101 enumerates at most
    # 101·9 pairs, under the budget; the 100×100 table's do not.
    A = generate_example("random-symmetric ab:101 size=9 seed=3")
    with pytest.raises(BudgetExceeded) as ei:
        sumset_growth_table(A, 100, 100, budget=20_000)
    assert ei.value.op == "sumset_growth_table"


def test_sumset_table_needs_commuting_input():
    ball = generate_example("ball ut:3:5 radius=1")
    with pytest.raises(NotAbelian):
        sumset_growth_table(ball, 2, 2)


def _centred_lift(A, n):
    ZZ = FiniteAbelian((0,))
    return PartialMap.from_function(
        A, ZZ, lambda a: Element(ZZ, (a.coords[0] - n if a.coords[0] > n // 2 else a.coords[0],))
    )


def test_centred_lift_is_triple_hom():
    A = _interval(10)
    fmap = _centred_lift(A, 101)
    assert is_centred_triple_hom(fmap)
    img = image_certificate(fmap)
    src = greedy_cover_certificate(A)
    assert img.K_upper <= src.K_upper
    assert img.aset.members == fmap.image_set().members


def test_broken_map_is_detected():
    A = _interval(4)
    table = dict(_centred_lift(A, 101).table)
    # corrupt one value: swaps break some triple product
    table[(1,)] = (2,)
    broken = PartialMap(A, FiniteAbelian((0,)), tuple(sorted(table.items())))
    assert not is_centred_triple_hom(broken)
    with pytest.raises(CertificateError):
        image_certificate(broken)


def test_triple_hom_budget():
    A = _interval(10)
    with pytest.raises(BudgetExceeded):
        is_centred_triple_hom(_centred_lift(A, 101), budget=100)


def test_image_certificate_respects_inverses():
    A = _interval(7)
    fmap = _centred_lift(A, 101)
    table = fmap.mapping()
    for c in A.members:
        assert table[A.parent.inv(c)] == fmap.codomain.inv(table[c])


def _pow(S, m):
    from growthlab import power

    return power(S, m)


# --------------------------------------------------------------------------
# Slice certificates against the plain scan and certify


def ref_slice_certificate(cert, member):
    """The translate scan by plain loops, then `certify` on its witness."""
    A = cert.aset
    G = A.parent
    mul, inv = G.mul, G.inv

    def prod(X, Y):
        return {mul(x, y) for x in X for y in Y}

    A2 = prod(A.members, A.members)
    A4 = prod(A2, A2)
    X3 = prod(prod(cert.witness.members, cert.witness.members), cert.witness.members)
    S = {c for c in A2 if member(c)}
    remaining = {c for c in A4 if member(c)}
    witnesses = set()
    for u in sorted(X3):
        hit = {mul(u, a) for a in A.members} & remaining
        if not hit:
            continue
        c = min(hit)
        witnesses.add(c)
        remaining -= {w for w in hit if mul(inv(c), w) in S}
    if remaining or len(witnesses) > cert.K_upper ** 3:
        return CertificateError
    try:
        return certify(GSet(G, S, _reduced=True), GSet(G, witnesses, _reduced=True))
    except CertificateError:
        return CertificateError


def _centre_quotient(U):
    corner = [0] * U.arity
    corner[U.pos_index[(0, U.n - 1)]] = 1
    return QuotientView(U, normal_closure([Element(U, tuple(corner))], U.generators()))


_SLICE_GROUPS = [
    FiniteAbelian((7,)),
    FiniteAbelian((4, 6)),
    Unitriangular(3, 3),
    Unitriangular(3, 5),
    Unitriangular(4, 2),
    _centre_quotient(Unitriangular(4, 2)),
]
_SLICE_POOLS = {G: sorted(G.iter_coords()) for G in _SLICE_GROUPS}


@st.composite
def _slice_case(draw):
    """A certificate and a predicate: a subgroup, or a set P ∋ 1 in A⁴.

    Many sets P are closed, step by step, until S² ⊆ P for S = A² ∩ P, so
    that they pass the square check and only the scan tells them from a
    subgroup.
    """
    G = draw(st.sampled_from(_SLICE_GROUPS))
    pool = _SLICE_POOLS[G]
    A = symmetrize(GSet(G, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)), _reduced=True))
    cert = greedy_cover_certificate(A)
    if draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
        H = span([Element(G, c) for c in gens]).elements.members
        return cert, H.__contains__, True
    A2 = power(A, 2).members
    body = sorted(power(A, 4).members)
    P = set(draw(st.lists(st.sampled_from(body), max_size=12))) | {G.identity_coords()}
    while draw(st.booleans()):
        S = P & A2
        square = {G.mul(x, y) for x in S for y in S}
        if square <= P:
            break
        P |= square
    return cert, P.__contains__, False


@settings(max_examples=200, deadline=None)
@given(_slice_case())
def test_slice_certificate_matches_certify_on_the_scan_witness(case):
    cert, member, subgroup = case
    expected = ref_slice_certificate(cert, member)
    try:
        got = predicate_slice_certificate(cert, member, 10**6)
    except CertificateError:
        got = CertificateError
    # For a subgroup both agree, certificate or refusal.  Any other predicate
    # may fail the square check where certify would pass, but a certificate
    # it does return is certify's.
    if subgroup or got is not CertificateError:
        assert got == expected


def ref_square_by_the_slice_walk(cert, member, budget):
    """predicate_slice_certificate with S² always from S's own power walk."""
    A = cert.aset
    slice_set = power(A, 2, budget).filter(member)
    T = power(A, 4, budget).filter(member)
    left_row = A.parent.left_row
    cells = (left_row(u, A.members) for u in power(cert.witness, 3, budget).sorted_members())
    C = _slice_scan(T, cells, slice_set, "slice cover left elements exposed")
    if len(C) > cert.K_upper ** 3:
        raise CertificateError("slice witness exceeded K^3")
    if len(slice_set) ** 2 > budget:
        raise BudgetExceeded("product", len(slice_set) ** 2, budget)
    square = power(slice_set, 2, budget)
    if not square.members <= T.members:
        missing = len(square.members - T.members)
        raise CertificateError(f"slice square leaves A^4 ∩ H ({missing} elements exposed)")
    return ApproxCertificate(slice_set, C, len(square))


def _slice_outcome(fn, *args):
    try:
        return fn(*args)
    except GrowthLabError as e:
        return type(e), str(e)


@st.composite
def _full_or_partial_slice(draw):
    """A drawn slice case, or a full one: every element passes, or ⟨A⟩ ⊇ A²."""
    cert, member, _ = draw(_slice_case())
    kind = draw(st.sampled_from(["drawn", "everything", "span"]))
    if kind == "everything":
        member = lambda c: True  # noqa: E731
    elif kind == "span":
        member = span(list(cert.aset.elements())).elements.members.__contains__
    A2, A4 = power(cert.aset, 2), power(cert.aset, 4)
    return cert, member, draw(st.integers(1, len(A4) * len(A2)) | st.just(10**6))


@settings(max_examples=200, deadline=None)
@given(_full_or_partial_slice())
def test_full_slice_square_from_the_walk_matches_the_slice_walk(case):
    cert, member, budget = case
    expected = _slice_outcome(ref_square_by_the_slice_walk, cert, member, budget)
    assert _slice_outcome(predicate_slice_certificate, cert, member, budget) == expected


def ref_slice_scan(target, cells, core, failure):
    """The slice scan with one `mul` per element of each hit."""
    mul, inv = target.parent.mul, target.parent.inv
    remaining = set(target.members)
    witnesses = []
    for cell in cells:
        if not remaining:
            break
        hit = remaining.intersection(cell)
        if hit:
            c = min(hit)
            witnesses.append(c)
            remaining -= {w for w in hit if mul(inv(c), w) in core.members}
    if remaining:
        raise CertificateError(failure)
    return GSet(target.parent, witnesses, _reduced=True)


@st.composite
def _scan_case(draw):
    """Drawn target, core and cells; often a last cell that holds the target."""
    G = draw(st.sampled_from(_SLICE_GROUPS))
    subsets = st.lists(st.sampled_from(_SLICE_POOLS[G]), max_size=10)
    target = GSet(G, draw(subsets), _reduced=True)
    core = GSet(G, draw(subsets) + [G.identity_coords()], _reduced=True)
    cells = draw(st.lists(subsets, max_size=5))
    if draw(st.booleans()):
        cells.append(list(target.members))
    return target, cells, core


@settings(max_examples=200, deadline=None)
@given(_scan_case())
def test_slice_scan_matches_the_per_element_products(case):
    target, cells, core = case
    expected = _slice_outcome(ref_slice_scan, target, cells, core, "exposed")
    assert _slice_outcome(_slice_scan, target, cells, core, "exposed") == expected


# --------------------------------------------------------------------------
# Slicing and fibre covers against the plain loops and a multiplied-out check


def _plain_power(S, m):
    G = S.parent
    out = {G.identity_coords()}
    for _ in range(m):
        out = {G.mul(x, a) for x in out for a in S.members}
    return GSet(G, out, _reduced=True)


def ref_slicing_cover(certA, certB, m, n):
    """The (u, v) double loop, then target ⊆ translates·core by `product`."""
    A, B = certA.aset, certB.aset
    G = A.parent
    mul, inv = G.mul, G.inv
    target = _plain_power(A, m).intersection(_plain_power(B, n))
    core = _plain_power(A, 2).intersection(_plain_power(B, 2))
    remaining = set(target.members)
    witnesses = []
    for u in _plain_power(certA.witness, m - 1).sorted_members():
        uA = {mul(u, a) for a in A.members}
        for v in _plain_power(certB.witness, n - 1).sorted_members():
            hit = remaining & uA & {mul(v, b) for b in B.members}
            if hit:
                c = min(hit)
                witnesses.append(c)
                remaining -= {w for w in hit if mul(inv(c), w) in core.members}
    translates = GSet(G, witnesses, _reduced=True)
    if not target <= product(translates, core):
        return CertificateError
    if len(translates) > certA.K_upper ** (m - 1) * certB.K_upper ** (n - 1):
        return CertificateError
    return target, core, translates


_COVER_GROUPS = [parse_group(t) for t in ("ab:7", "ab:12", "ut:3:3", "ut:3:5", "prod:(ab:4);(ut:3:2)")]
_COVER_POOLS = {G: sorted(G.iter_coords()) for G in _COVER_GROUPS}


@st.composite
def _drawn_cert(draw, G):
    """A symmetric A ∋ 1 in G and a witness: the greedy one, maybe enlarged
    by drawn elements of A² (any X ⊇ a witness is one too)."""
    pool = _COVER_POOLS[G]
    A = symmetrize(GSet(G, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)), _reduced=True))
    cert = greedy_cover_certificate(A)
    extra = draw(st.lists(st.sampled_from(sorted(power(A, 2).members)), max_size=3))
    if not extra:
        return cert
    return certify(A, GSet(G, set(cert.witness.members) | set(extra), _reduced=True))


@st.composite
def _slicing_case(draw):
    G = draw(st.sampled_from(_COVER_GROUPS))
    return draw(_drawn_cert(G)), draw(_drawn_cert(G)), draw(st.integers(1, 3)), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(_slicing_case())
def test_slicing_cover_matches_the_double_loop_and_the_product_check(case):
    certA, certB, m, n = case
    expected = ref_slicing_cover(certA, certB, m, n)
    try:
        sc = slicing_cover(certA, certB, m, n)
        got = sc.target, sc.core, sc.translates
    except CertificateError:
        got = CertificateError
    assert got == expected


def test_slice_scan_refuses_an_element_of_a_cell_outside_its_witness_translate():
    # No valid slicing certificate reaches this: 5 shares the only cell
    # with the witness 0, but 0⁻¹·5 = 5 is not in the core {0}.
    G = FiniteAbelian((101,))
    target, core = GSet(G, [(0,), (5,)]), GSet(G, [(0,)])
    with pytest.raises(CertificateError, match="exposed"):
        _slice_scan(target, [{(0,), (5,)}], core, "exposed")
    # A later cell that holds 5 makes 5 its own witness.
    assert _slice_scan(target, [{(0,), (5,)}, {(5,)}], core, "exposed") == target


def test_slice_scan_picks_the_least_element_and_draws_no_cell_past_the_cover():
    G = FiniteAbelian((101,))
    target = GSet(G, [(0,), (5,)])
    pulled = []

    def cells():
        for cell in ({(0,), (5,)}, {(7,)}):
            pulled.append(cell)
            yield cell

    assert _slice_scan(target, cells(), target, "exposed").members == {(0,)}
    assert pulled == [{(0,), (5,)}]
    assert _slice_scan(GSet(G, []), cells(), target, "exposed") == GSet(G, [])
    assert len(pulled) == 1


# --------------------------------------------------------------------------
# The sumset table against every cell multiplied out


def _plain_product(S, T):
    mul = S.parent.mul
    return GSet(S.parent, {mul(s, t) for s in S.members for t in T.members}, _reduced=True)


def ref_sumset_table(A, mmax, nmax, budget):
    """The table with every cell a plain double loop: K from A² under the
    power walk's checks (its pairs, then |A²|), then the chains A, 2A, …
    and each row mA − A − … − A, counting |S|·|A| for every product,
    cumulatively, before it is taken."""
    G = A.parent
    first = (len(A) - (G.identity_coords() in A.members)) * len(A)
    if first > budget:
        raise BudgetExceeded("product", first, budget)
    A2 = _plain_product(A, A)
    if len(A2) > budget:
        raise BudgetExceeded("product", len(A2), budget)
    K = Fraction(len(A2), len(A))
    neg = GSet(G, [G.inv(a) for a in A.members], _reduced=True)
    pairs = 0

    def extend(S, T):
        nonlocal pairs
        pairs += len(S) * len(T)
        if pairs > budget:
            raise BudgetExceeded("sumset_growth_table", pairs, budget)
        return _plain_product(S, T)

    rows, pos = [], A
    for m in range(1, mmax + 1):
        if m > 1:
            pos = extend(pos, A)
        cur = pos
        for n in range(nmax + 1):
            if n > 0:
                cur = extend(cur, neg)
            if m + n >= 2:
                bound = K ** (m + n) * len(A)
                rows.append((m, n, len(cur), bound, len(cur) <= bound))
    return K, rows


def _table_outcome(fn, *args):
    try:
        K, rows = fn(*args)
    except BudgetExceeded as e:
        return (e.op, e.needed, e.budget)
    return K, [r if isinstance(r, tuple) else (r.m, r.n, r.size, r.bound, r.within) for r in rows]


_SUMSET_GROUPS = [parse_group(t) for t in ("ab:31", "ab:5,7", "ab:0")]


@st.composite
def _sumset_case(draw):
    """A set in ab:p, ab:p,q or ab:0, with or without 1, symmetric or not;
    a table shape; a budget that is often too small."""
    G = draw(st.sampled_from(_SUMSET_GROUPS))
    coord = st.integers(-6, 6) if not G.is_finite() else st.integers(0, 34)
    cs = draw(st.lists(st.tuples(*[coord] * G.arity), min_size=1, max_size=6))
    coords = {G.reduce(c) for c in cs}
    if draw(st.booleans()):
        coords |= {G.inv(c) for c in coords}
    one = G.identity_coords()
    coords = (coords | {one}) if draw(st.booleans()) else (coords - {one} or coords)
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, 4)))
    return G, sorted(coords), shape, draw(st.integers(1, 4000))


_PLUNNECKE_000 = generate_example("random-symmetric ab:101 size=7 seed=11000")  # the suite's first set


@example(case=(_PLUNNECKE_000.parent, sorted(_PLUNNECKE_000.members), (4, 4), 10**6))
@example(case=(_PLUNNECKE_000.parent, sorted(_PLUNNECKE_000.members), (4, 4), 2_000))
@settings(max_examples=200, deadline=None)
@given(_sumset_case())
def test_sumset_table_matches_every_cell_multiplied_out(case):
    G, coords, (mmax, nmax), budget = case

    def fresh():  # a set with no stored walk
        return GSet(G, coords, _reduced=True)

    expected = _table_outcome(ref_sumset_table, fresh(), mmax, nmax, budget)
    A = fresh()
    assert _table_outcome(sumset_growth_table, A, mmax, nmax, budget) == expected
    if isinstance(expected[0], str):
        # One below the budget a check needs is refused the same way, and at
        # it that check passes.  In a finite parent A's walk is stored now,
        # so these replay it.
        needed = expected[1]
        for b in (needed - 1, needed):
            assert _table_outcome(sumset_growth_table, A, mmax, nmax, b) == \
                _table_outcome(ref_sumset_table, fresh(), mmax, nmax, b)


# --------------------------------------------------------------------------
# Order-3 maps, image certificates and the greedy witness against plain loops


def ref_triple_hom(fmap):
    """The centred order-3 condition by the plain loop over every triple."""
    A, G, C = fmap.domain, fmap.domain.parent, fmap.codomain
    table = fmap.mapping()
    if G.identity_coords() in table and table[G.identity_coords()] != C.identity_coords():
        return False
    if any(G.inv(a) in table and table[G.inv(a)] != C.inv(table[a]) for a in A.members):
        return False
    seen = {}
    for a1 in A.members:
        for a2 in A.members:
            for a3 in A.members:
                p = G.mul(G.mul(a1, a2), a3)
                f = C.mul(C.mul(table[a1], table[a2]), table[a3])
                if seen.setdefault(p, f) != f:
                    return False
    return True


def ref_image_certificate(fmap, base):
    """Each witness of `base` split by a search of the pairs in sorted order,
    then `certify` on the images; CertificateError for a refusal."""
    A, C = fmap.domain, fmap.codomain
    mul, members, table = A.parent.mul, A.sorted_members(), fmap.mapping()
    images = []
    for x in base.witness.sorted_members():
        split = next(((a1, a2) for a1 in members for a2 in members if mul(a1, a2) == x), None)
        if split is None:
            return CertificateError
        images.append(C.mul(table[split[0]], table[split[1]]))
    try:
        return certify(fmap.image_set(), GSet(C, images, _reduced=True))
    except CertificateError:
        return CertificateError


def ref_greedy_witness(A):
    """The greedy by a full rescan of A² each round: the least x of greatest
    gain |x·A ∩ A² ∩ uncovered|."""
    square = _plain_product(A, A)
    masks = {x: square.members & {A.parent.mul(x, a) for a in A.members} for x in square.members}
    uncovered, chosen = set(square.members), []
    while uncovered:
        best = max(sorted(masks), key=lambda x: len(masks[x] & uncovered))  # max keeps the first
        chosen.append(best)
        uncovered -= masks[best]
    return frozenset(chosen)


def _abelianization(A):
    """ut:3:p → ab:p,p on the two abelian coordinates, a homomorphism."""
    G = A.parent
    i, j = G.abelian_coords
    cod = FiniteAbelian((G.coord_moduli[i], G.coord_moduli[j]))
    return PartialMap.from_function(A, cod, lambda a: Element(cod, (a.coords[i], a.coords[j])))


_HOM_SOURCES = [FiniteAbelian((n,)) for n in (7, 11, 12, 31, 61)] + [Unitriangular(3, 3), Unitriangular(3, 5)]


@st.composite
def _hom_case(draw):
    """A drawn set (symmetric with 1, or any) and a map of it: a lift,
    dilation or embedding of ab:n, or the abelianization or the identity of
    ut:3:p; sometimes one image replaced, or one and its inverse's."""
    G = draw(st.sampled_from(_HOM_SOURCES))
    coords = draw(st.lists(st.sampled_from(sorted(G.iter_coords())), min_size=1, max_size=7))
    A = GSet(G, coords, _reduced=True)
    if draw(st.booleans()):
        A = symmetrize(A)
    if isinstance(G, FiniteAbelian):
        kind = draw(st.sampled_from(["lift", "dilate", "embed"]))
        params = {"kind": kind, "lam": draw(st.integers(-3, 5)), "second": draw(st.integers(1, 6))}
        fmap = _build_partial_map(A, params)
    elif draw(st.booleans()):
        fmap = _abelianization(A)
    else:
        fmap = PartialMap.from_function(A, G, lambda a: a)
    if draw(st.booleans()):
        table = dict(fmap.table)
        key = draw(st.sampled_from(sorted(table)))
        cod = fmap.codomain
        coord = st.integers(-9, 9) if not cod.is_finite() else st.integers(0, max(cod.coord_moduli) - 1)
        table[key] = cod.reduce(tuple(draw(coord) for _ in cod.coord_moduli))
        key_inv = A.parent.inv(key)
        if key_inv in table and draw(st.booleans()):  # keeps the image set symmetric
            table[key_inv] = cod.inv(table[key])
        fmap = PartialMap(A, cod, tuple(sorted(table.items())))
    return fmap


@settings(max_examples=300, deadline=None)
@given(_hom_case())
def test_triple_hom_matches_the_plain_triple_loop(fmap):
    assert is_centred_triple_hom(fmap) == ref_triple_hom(fmap)


def _cert_outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except CertificateError:
        return CertificateError


# Not a hom: 2 ↦ 0 and 10 ↦ 0 in Z_12.  The greedy witness {0, 2} has 2
# split first as 0 + 2 ↦ 0 and last as 10 + 4 ↦ 4, so only the first split
# gives the reference's image witness {0}.
_Z12_BENT = PartialMap(
    GSet(FiniteAbelian((12,)), [(0,), (2,), (4,), (8,), (10,)], _reduced=True),
    FiniteAbelian((12,)),
    (((0,), (0,)), ((2,), (0,)), ((4,), (4,)), ((8,), (8,)), ((10,), (0,))),
)


@example(fmap=_Z12_BENT, source_kind="greedy")
@settings(max_examples=200, deadline=None)
@given(_hom_case(), st.sampled_from(["greedy", "set", "cube"]))
def test_image_certificate_matches_the_plain_split_search(fmap, source_kind):
    A = fmap.domain
    if not (A.contains_identity() and A.is_symmetric()):
        with pytest.raises(CertificateError):
            image_certificate(fmap, check_hom=False)
        return
    greedy = greedy_cover_certificate(A)
    hom = ref_triple_hom(fmap)
    expected = ref_image_certificate(fmap, greedy) if hom else CertificateError
    assert _cert_outcome(image_certificate, fmap) == expected
    assert _cert_outcome(image_certificate, fmap, check_hom=False) == ref_image_certificate(fmap, greedy)
    # A held source certificate is reused as it is: the greedy's, X = A
    # (every a = a·1), or X = A³, whose members outside A² have no split.
    source = {"greedy": greedy, "set": certify(A, A), "cube": certify(A, power(A, 3))}[source_kind]
    assert _cert_outcome(image_certificate, fmap, check_hom=False, source=source) == \
        ref_image_certificate(fmap, source)


def test_image_certificate_refuses_a_source_for_another_set():
    A = _interval(4)
    other = greedy_cover_certificate(_interval(3))
    with pytest.raises(CertificateError, match="another set"):
        image_certificate(_centred_lift(A, 101), source=other)


_GREEDY_GROUPS = [parse_group(t) for t in ("ab:12", "ab:31", "ut:3:3", "ut:3:5", "prod:(ab:4);(ut:3:2)")]
_GREEDY_POOLS = {G: sorted(G.iter_coords()) for G in _GREEDY_GROUPS}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_GREEDY_GROUPS).flatmap(
    lambda G: st.lists(st.sampled_from(_GREEDY_POOLS[G]), min_size=1, max_size=5).map(
        lambda cs: symmetrize(GSet(G, cs, _reduced=True)))))
def test_greedy_witness_matches_the_full_rescan(A):
    cert = greedy_cover_certificate(A)
    assert cert.witness.members == ref_greedy_witness(A)
    assert cert.square_size == len(_plain_product(A, A))
