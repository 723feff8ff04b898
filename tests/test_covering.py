"""Ruzsa and Chang covers: exactness, bounds, and the witness-scan path."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    BudgetExceeded,
    CertificateError,
    FiniteAbelian,
    GSet,
    Meter,
    Unitriangular,
    chang_cover,
    chang_t_bound,
    derived_subgroup,
    greedy_cover_certificate,
    power,
    product,
    inverse_set,
    ruzsa_cover,
    verify_translate_cover,
)
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
    assert rc.verified
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
    assert cc.verified


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
    assert meets_translated(Z101, (0,), B)
    assert meets_translated(Z101, (1,), B)  # shifts {2,3}, still meets at 2
    assert not meets_translated(Z101, (50,), B)


def test_verify_translate_cover_both_paths():
    ball = generate_example("ball ab:101 radius=1")
    B = generate_example("interval ab:101 L=20")
    X = GSet(Z101, [(0,)], _reduced=True)
    # materialized path: |X||B| and |X||B|^2 both fit
    verify_translate_cover(ball, X, B, budget=5_000_000, op="check")
    # witness-scan path: |X||B|^2 = 1681 exceeds the budget, the scans
    # (at most |ball|*|B| = 123 probes) do not
    verify_translate_cover(ball, X, B, budget=400, op="check")
    stray = GSet(Z101, list(ball.members) + [(50,)], _reduced=True)
    with pytest.raises(CertificateError):
        verify_translate_cover(stray, X, B, budget=400, op="check")
    with pytest.raises(CertificateError):
        verify_translate_cover(stray, X, B, budget=5_000_000, op="check")


_UT3 = {p: Unitriangular(3, p) for p in (3, 5)}
_CENTRES = {p: derived_subgroup(G.generators()).elements for p, G in _UT3.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_UT3)), st.data())
def test_witness_scan_on_xh_matches_brute_force(p, data):
    # The corollary covers check A ⊆ X·H·P·P⁻¹ as A ⊆ (X·H)·P·P⁻¹, here
    # with H the centre of ut:3:p, on the materialised path (large budget)
    # and on the streaming one (a budget just below |X·H|·|P|²).
    G, H = _UT3[p], _CENTRES[p]
    pool = sorted(G.iter_coords())

    def draw_set(source, lo, hi):
        members = data.draw(st.lists(st.sampled_from(source), min_size=lo, max_size=hi, unique=True))
        return GSet(G, members, _reduced=True)

    X, P = draw_set(pool, 1, 3), draw_set(pool, 2, 5)
    mul, inv = G.mul, G.inv
    covered = {
        mul(mul(mul(x, h), s), inv(t))
        for x in X.members for h in H.members for s in P.members for t in P.members
    }
    # |A| < |P| keeps the streaming scan's |A|·|X·H|·|P| probes within budget.
    A = draw_set(sorted(covered) if data.draw(st.booleans()) else pool, 1, len(P) - 1)
    XH = product(X, H)
    for budget in (10**6, len(XH) * len(P) ** 2 - 1):
        if A.members <= covered:
            verify_translate_cover(A, XH, P, budget, "check")
        else:
            with pytest.raises(CertificateError):
                verify_translate_cover(A, XH, P, budget, "check")
