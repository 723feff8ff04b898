"""Certificates, growth law, slicing, sumset tables, and mapped images.

A slice certificate is proved by its own translate scan and never builds
C·S; `ref_slice_certificate` is the plain scan followed by `certify`, and a
hypothesis property pins the fast path to it.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetExceeded,
    CertificateError,
    Element,
    FiniteAbelian,
    GSet,
    NotAbelian,
    PartialMap,
    QuotientView,
    Unitriangular,
    certify,
    doubling_constant,
    fibre_cover,
    greedy_cover_certificate,
    growth_law,
    heisenberg,
    image_certificate,
    is_centred_triple_hom,
    normal_closure,
    power,
    predicate_slice_certificate,
    slicing_cover,
    span,
    sumset_growth_table,
    symmetrize,
)
from growthlab.recipes import generate_example

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


def test_fibre_cover_pigeonhole():
    parent = FiniteAbelian((12, 12))
    A = symmetrize(GSet(parent, [(1, 0), (0, 1), (4, 2)], _reduced=True))
    H = span([Element(parent, (4, 0)), Element(parent, (0, 4))])
    fc = fibre_cover(A, H, max_cosets=16)
    assert len(fc.reps) <= 16
    assert fc.core.is_symmetric()


def test_fibre_cover_honours_budget():
    parent = FiniteAbelian((12, 12))
    A = symmetrize(GSet(parent, [(1, 0), (0, 1), (4, 2)], _reduced=True))
    H = span([Element(parent, (4, 0)), Element(parent, (0, 4))])
    with pytest.raises(BudgetExceeded) as err:
        fibre_cover(A, H, max_cosets=16, budget=62)  # keying costs |A|·|H| = 7·9 pairs
    assert (err.value.op, err.value.needed) == ("fibre_cover", 63)
    assert len(fibre_cover(A, H, max_cosets=16, budget=63).reps) <= 16


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
