"""Ruzsa and Chang covers: exactness, bounds, and the witness-scan path."""
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetExceeded,
    CertificateError,
    FiniteAbelian,
    GSet,
    Meter,
    QuotientView,
    Unitriangular,
    certify,
    chang_cover,
    chang_t_bound,
    derived_subgroup,
    greedy_cover_certificate,
    power,
    product,
    inverse_set,
    parse_group,
    ruzsa_cover,
    verify_translate_cover,
)
from growthlab import covering
from growthlab.covering import meets_translated
from growthlab.recipes import generate_example

Z101 = FiniteAbelian((101,))


def test_ruzsa_cover_small_frozen():
    A = generate_example("random-symmetric ab:101 size=21 seed=7")
    B = generate_example("ball ab:101 radius=2")
    rc = ruzsa_cover(A, B)
    assert len(rc.X) == 15
    assert rc.ratio_bound == 17
    assert rc.product_size == 83
    assert len(rc.X) <= math.ceil(rc.product_size / len(B))


def test_ruzsa_translates_disjoint_and_covering():
    A = generate_example("random-symmetric ab:101 size=13 seed=3")
    B = generate_example("ball ab:101 radius=1")
    rc = ruzsa_cover(A, B)
    translates = [
        frozenset(A.parent.mul(x, b) for b in B.members) for x in rc.X.members
    ]
    for i, s in enumerate(translates):
        for t in translates[i + 1 :]:
            assert not (s & t)
    hull = product(product(rc.X, B), inverse_set(B))
    assert A <= hull


def test_chang_cover_multi_stage_frozen():
    A = generate_example("random-symmetric ab:43 size=17 seed=9004")
    cert = greedy_cover_certificate(A)
    Am = power(A, 2)
    import random

    B = GSet(A.parent, random.Random(44).sample(Am.sorted_members(), 1), _reduced=True)
    cc = chang_cover(cert, B, 2)
    assert cc.t == 2
    assert list(cc.stage_sizes) == [8, 2]
    cap = 2 * cert.K_upper
    assert all(s <= cap for s in cc.stage_sizes)
    assert cc.t <= cc.t_bound


def test_chang_requires_b_inside_power():
    A = generate_example("random-symmetric ab:101 size=11 seed=1")
    cert = greedy_cover_certificate(A)
    outside = GSet(A.parent, [(50,)], _reduced=True)
    if (50,) in power(A, 2).members:  # pragma: no cover - seed-dependent guard
        pytest.skip("chosen point landed inside the square")
    with pytest.raises(CertificateError):
        chang_cover(cert, outside, 2)


def test_chang_t_bound_formula():
    assert chang_t_bound(8, 2, 4, 8.0) == max(
        1, math.ceil(8.0 * (math.log(8) + 2 * math.log(4) + 1))
    )
    assert chang_t_bound(1, 1, 1, 8.0) >= 1


def test_meter_spends_and_raises():
    m = Meter("scan", 10)
    m.spend(7)
    with pytest.raises(BudgetExceeded) as ei:
        m.spend(7)
    assert ei.value.op == "scan"


def test_meets_translated():
    B = frozenset({(1,), (2,)})
    meter = Meter("scan", 10**6)
    assert meets_translated(Z101, (0,), B, B, meter)
    assert meets_translated(Z101, (1,), B, B, meter)  # shifts {2,3}, still meets at 2
    assert not meets_translated(Z101, (50,), B, B, meter)
    assert meets_translated(Z101, (50,), B, frozenset({(52,)}), meter)


def test_verify_translate_cover_both_paths():
    ball = generate_example("ball ab:101 radius=1")
    B = generate_example("interval ab:101 L=20")
    X = GSet(Z101, [(0,)], _reduced=True)
    # Both cases take the one scan: a large budget, and one below the
    # |X||B|^2 = 1681 that multiplying the cover out would need, which still
    # holds X·B (41 pairs) and the at most |ball|*|B| = 123 scanned elements.
    verify_translate_cover(ball, X, B, budget=5_000_000, op="check")
    verify_translate_cover(ball, X, B, budget=400, op="check")
    stray = GSet(Z101, list(ball.members) + [(50,)], _reduced=True)
    with pytest.raises(CertificateError):
        verify_translate_cover(stray, X, B, budget=400, op="check")
    with pytest.raises(CertificateError):
        verify_translate_cover(stray, X, B, budget=5_000_000, op="check")
    # The scans' budget counts scanned elements.  With B the subgroup {0,4,8}
    # of Z/12 a probe scans one element when it hits and all three when it
    # misses.  a = 0..3 lie in X and hit on themselves (4); a = 4, 5, 6 hit
    # at x = a mod 4 (1 + 4 + 7 = 12, 16 so far).  That passes |X|·|B| = 12,
    # so X·B = Z/12 is built and a = 7..11 each hit at once: 21 in all.
    Z12 = FiniteAbelian((12,))
    whole = GSet(Z12, [(i,) for i in range(12)], _reduced=True)
    reps = GSet(Z12, [(i,) for i in range(4)], _reduced=True)
    sub = GSet(Z12, [(0,), (4,), (8,)], _reduced=True)
    verify_translate_cover(whole, reps, sub, budget=21, op="check")
    with pytest.raises(BudgetExceeded) as ei:
        verify_translate_cover(whole, reps, sub, budget=20, op="check")
    assert (ei.value.op, ei.value.needed) == ("check", 21)


def test_cover_with_many_translates_stays_linear():
    # 2001 disjoint translates of a 3-element interval.  Probing each x in
    # turn would scan about |A|·|X|·|B| / 2 elements; the probes stop past
    # |X|·|B| = 6003, and once X·B is built each a scans at most |B| = 3.
    A = generate_example("interval ab:0 L=3000")
    B = generate_example("interval ab:0 L=1")
    rc = ruzsa_cover(A, B)
    assert len(rc.X) == 2001
    verify_translate_cover(A, rc.X, B, (2 * len(rc.X) + len(A)) * len(B), "check")


def _centre(G):
    elems = list(G.iter_coords())
    mul = G.mul
    return GSet(G, [z for z in elems if all(mul(z, g) == mul(g, z) for g in elems)], _reduced=True)


def _scan_cases():
    # (parent, H) for each parent kind the benchmark workloads cover with a
    # translate cover; H is the subgroup the corollary covers fold into X.
    ab = FiniteAbelian((11,))
    cases = {"ab:11": (ab, GSet.identity_set(ab))}
    for p in (3, 5):
        G = Unitriangular(3, p)
        cases[f"ut:3:{p}"] = (G, derived_subgroup(G.generators()).elements)
    ut42 = Unitriangular(4, 2)
    cases["ut:4:2"] = (ut42, _centre(ut42))
    ut35 = Unitriangular(3, 5)
    q = QuotientView(ut35, derived_subgroup(ut35.generators()))
    cases["ut:3:5/Z"] = (q, GSet.identity_set(q))
    return cases


_SCAN_CASES = _scan_cases()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_SCAN_CASES)), st.data())
def test_witness_scan_on_xh_matches_brute_force(case, data):
    # The corollary covers check A ⊆ X·H·P·P⁻¹ as A ⊆ (X·H)·P·P⁻¹.  The
    # scan's verdict must match a plain quadruple loop, with A drawn partly
    # outside the cover so that rejections are exercised too.
    G, H = _SCAN_CASES[case]
    pool = sorted(G.iter_coords())

    def draw(source, lo, hi):
        return data.draw(st.lists(st.sampled_from(source), min_size=lo, max_size=hi, unique=True))

    X = GSet(G, draw(pool, 1, 3), _reduced=True)
    P = GSet(G, draw(pool, 1, 5), _reduced=True)
    mul, inv = G.mul, G.inv
    covered = {
        mul(mul(mul(x, h), s), inv(t))
        for x in X.members for h in H.members for s in P.members for t in P.members
    }
    A = GSet(G, draw(sorted(covered), 1, 6) + draw(pool, 0, 2), _reduced=True)
    XH = product(X, H)
    # The probes stop once they pass |X·H|·|P| elements and the last adds at
    # most that again; X·H·P takes |X·H|·|P| pairs, and each later a scans
    # at most |P| elements.
    for budget in (10**6, (2 * len(XH) + len(A)) * len(P)):
        if A.members <= covered:
            verify_translate_cover(A, XH, P, budget, "check")
        else:
            with pytest.raises(CertificateError):
                verify_translate_cover(A, XH, P, budget, "check")


def test_ruzsa_cover_checks_budget_before_scanning(monkeypatch):
    A = generate_example("interval ab:0 L=3000")
    rows = []
    real = FiniteAbelian.left_row
    monkeypatch.setattr(FiniteAbelian, "left_row", lambda self, a, bs: rows.append(a) or real(self, a, bs))
    with pytest.raises(BudgetExceeded) as ei:
        ruzsa_cover(A, A, budget=1000)
    assert (ei.value.op, ei.value.needed, ei.value.budget) == ("product", 36012001, 1000)
    assert rows == []


def ref_ruzsa_cover(A, B, budget):
    """|A·B| from `product`, the greedy disjoint scan over plain sets, then
    the witness scan; a BudgetExceeded becomes its (op, needed)."""
    mul = A.parent.mul
    try:
        ab_size = len(product(A, B, budget))
        kept, occupied = [], set()
        for a in A.sorted_members():
            aB = {mul(a, b) for b in B.members}
            if not aB & occupied:
                kept.append(a)
                occupied |= aB
        X = GSet(A.parent, kept, _reduced=True)
        verify_translate_cover(A, X, B, budget, "ruzsa cover verification")
    except BudgetExceeded as e:
        return e.op, e.needed
    return X, -(-ab_size // len(B)), ab_size


_RUZSA_GROUPS = [parse_group(t) for t in ("ab:7", "ab:12", "ut:3:3", "ut:3:5", "prod:(ab:4);(ut:3:2)")]
_RUZSA_POOLS = {G: sorted(G.iter_coords()) for G in _RUZSA_GROUPS}


@st.composite
def _ruzsa_case(draw):
    G = draw(st.sampled_from(_RUZSA_GROUPS))
    sets = st.lists(st.sampled_from(_RUZSA_POOLS[G]), min_size=1, max_size=8)
    A, B = GSet(G, draw(sets)), GSet(G, draw(sets))
    # Every check passes at (3|A| + 1)·|B|: |A|·|B| pairs, then the witness
    # scan's (2|X| + |A|)·|B| elements with X ⊆ A.
    return A, B, draw(st.integers(1, (3 * len(A) + 1) * len(B)))


_Z7 = parse_group("ab:7")
_SMALL_A = GSet(_Z7, [(0,), (1,), (2,)])  # |A·A| = 5 of |A|·|A| = 9 pairs


@settings(max_examples=300, deadline=None)
@given(_ruzsa_case())
@example((_SMALL_A, _SMALL_A, 9 - 1))
@example((_SMALL_A, _SMALL_A, 5 - 1))
def test_ruzsa_cover_matches_the_product_and_the_plain_scan(case):
    # The same X and |A·B|, and the same BudgetExceeded op and needed at
    # every budget, as when A·B was multiplied out for its size.
    A, B, budget = case
    try:
        rc = ruzsa_cover(A, B, budget)
        got = rc.X, rc.ratio_bound, rc.product_size
    except BudgetExceeded as e:
        got = e.op, e.needed
    assert got == ref_ruzsa_cover(A, B, budget)


def test_chang_cover_meters_its_translate_scans():
    # On the corollary path B ⊆ A^m is taken as given, so nothing else
    # bounds the scans: each stage computes a·T for all 601 elements a of
    # A, and the last T has 256 elements (stages 4, 4, 4, 4, 3).
    A = generate_example("interval ab:0 L=300")
    cert = certify(A, GSet(A.parent, [(-300,), (300,)]))
    B = GSet(A.parent, [(0,)])
    with pytest.raises(BudgetExceeded) as ei:
        chang_cover(cert, B, 1, budget=153_855, assume_in_power=True)
    assert (ei.value.op, ei.value.needed) == ("disjoint_translates", 601 * 256)
    cc = chang_cover(cert, B, 1, budget=153_856, assume_in_power=True)
    assert (cert.K_upper, cc.stage_sizes, cc.hull_sizes) == (2, (4, 4, 4, 4, 3), (1, 4, 16, 64, 256))


def ref_translate_cover_probes(A, X, B, budget, op, probe):
    """verify_translate_cover with every candidate list built in full: each
    a ∈ X first, then the rest of X in order."""
    parent = A.parent
    meter = Meter(op, budget)
    XB = None
    for a in A.sorted_members():
        if XB is None and meter.used > len(X) * len(B):
            XB = product(X, B, budget).members
        if XB is None:
            cands = [a] + [x for x in X.sorted_members() if x != a] if a in X.members else X.sorted_members()
            hit = any(probe(parent, parent.mul(parent.inv(x), a), B.members, B.members, meter) for x in cands)
        else:
            hit = probe(parent, a, B.members, XB, meter)
        if not hit:
            raise CertificateError("cover failed exact verification")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SCAN_CASES)), st.data())
def test_witness_scan_probes_as_the_full_candidate_lists_do(case, data):
    # The candidates of each a are produced lazily; the probes, their order
    # and what each leaves on the meter are those of the full lists.
    G, _ = _SCAN_CASES[case]
    pool = sorted(G.iter_coords())

    def draw(lo, hi):
        return GSet(G, data.draw(st.lists(st.sampled_from(pool), min_size=lo, max_size=hi, unique=True)),
                    _reduced=True)

    X, B = draw(1, 4), draw(1, 4)
    A = GSet(G, list(draw(0, 4).members) + list(data.draw(st.sampled_from([X, draw(1, 3)])).members),
             _reduced=True)
    budget = data.draw(st.integers(1, 60))
    log = []

    def recording(parent, t, S, T, meter):
        hit = meets_translated(parent, t, S, T, meter)
        log.append((t, T is S, meter.used, hit))
        return hit

    def outcome(fn, *args):
        log.clear()
        try:
            fn(*args)
            result = None
        except (CertificateError, BudgetExceeded) as e:
            result = (type(e), str(e))
        return result, list(log)

    expected = outcome(ref_translate_cover_probes, A, X, B, budget, "check", recording)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(covering, "meets_translated", recording)
        assert outcome(verify_translate_cover, A, X, B, budget, "check") == expected
