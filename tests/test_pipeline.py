"""The decomposition pipeline: abelianization, sections, fibres,
step reduction, the full recursion, and the two corollary covers.

The slices of a step reduction take A², A⁴ and X³ from the power walks
and share one table of π(c); the step reduction lifts the generators the
oracle kept for H rather than all of H, and the pigeonhole scores
candidates against a suffix table.  Every set a `SubgroupHandle` marks as
a group during a decomposition is checked to be one.
"Shared values against the plain versions" keeps the versions they
replaced and pins the shortcuts to them.
"""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import (
    ApproxCertificate,
    BudgetExceeded,
    CertificateError,
    ContainmentError,
    DirectProduct,
    Element,
    FiniteAbelian,
    GSet,
    GrowthLabError,
    NotAbelian,
    ParentMismatch,
    ProgressionSpec,
    QuotientView,
    SubgroupHandle,
    Unitriangular,
    abelian_factorization,
    abelianization,
    build_section,
    containment_radius,
    corollary_covers,
    decompose,
    derived_subgroup,
    greedy_cover_certificate,
    heisenberg,
    in_cyclic,
    normal_closure,
    ordered_progression,
    parse_group,
    power,
    predicate_slice_certificate,
    product,
    pullback_check,
    quotient_project,
    span,
    step_reduction,
    word_radius_bound,
)
from growthlab import oracle, pipeline
from growthlab.pipeline import Piece, _fibres, _pigeonhole, _suffix_products
from growthlab.recipes import generate_example

H3 = heisenberg(3)
HZ = heisenberg(0)


def _ball(group):
    return generate_example(f"ball {group} radius=1")


def test_abelianization_of_heisenberg():
    proj = abelianization(H3)
    assert proj.codomain.moduli == (3, 3)
    img = proj.image(_ball("ut:3:3"))
    assert len(img) == 5
    a = proj.apply((1, 2, 1))
    b = proj.apply((1, 0, 1))
    assert a == b  # central coordinate dies


def _ref_abelianization(G):
    """(codomain moduli, π, section, kernel coordinates) by one rule per
    backend: the identity for ab:, the superdiagonal for ut:, and the
    factors' rules side by side for prod:."""
    if isinstance(G, FiniteAbelian):
        return G.moduli, lambda c: tuple(c), lambda w: tuple(w), []
    if isinstance(G, Unitriangular):
        sup = [k for k, (i, j) in enumerate(G.positions) if j == i + 1]

        def section(w):
            out = [0] * G.arity
            for k, v in zip(sup, w):
                out[k] = v
            return tuple(out)

        kernel = [
            tuple(int(t == k) for t in range(G.arity))
            for k, (i, j) in enumerate(G.positions) if j > i + 1
        ]
        return (G.modulus,) * len(sup), lambda c: tuple(c[k] for k in sup), section, kernel
    parts = [_ref_abelianization(f) for f in G.factors]
    cuts = list(itertools.accumulate((f.arity for f in G.factors), initial=0))
    wcuts = list(itertools.accumulate((len(p[0]) for p in parts), initial=0))
    spans = list(zip(parts, cuts, cuts[1:], wcuts, wcuts[1:]))

    def fn(c):
        return sum((p[1](c[a:b]) for p, a, b, _, _ in spans), ())

    def section(w):
        return sum((p[2](w[u:v]) for p, _, _, u, v in spans), ())

    kernel = [
        (0,) * a + k + (0,) * (G.arity - b) for p, a, b, _, _ in spans for k in p[3]
    ]
    return sum((p[0] for p in parts), ()), fn, section, kernel


_ABELIANIZED = (
    "ab:6,0", "ut:2:5", "ut:3:5", "ut:4:0", "prod:(ab:5);(ut:3:3)", "prod:(ut:3:0);(ab:0,7)",
)


@pytest.mark.parametrize("text", _ABELIANIZED)
def test_abelianization_matches_the_per_backend_rules(text):
    G = parse_group(text)
    moduli, fn, section, kernel = _ref_abelianization(G)
    proj = abelianization(G)
    assert proj.codomain == FiniteAbelian(moduli)
    assert [g.coords for g in proj.kernel_gens] == [G.reduce(k) for k in kernel]
    rng = random.Random(text)
    members = [G.reduce(tuple(rng.randrange(-9, 10) for _ in range(G.arity))) for _ in range(50)]
    assert proj.table(members) == {c: fn(c) for c in members}
    for _ in range(50):
        w = tuple(rng.randrange(-9, 10) for _ in moduli)
        assert proj.section_element(w) == Element(G, G.reduce(section(w)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_ABELIANIZED), st.data())
def test_abelianization_is_a_homomorphism(text, data):
    G = parse_group(text)
    proj = abelianization(G)
    coords = st.tuples(*[st.integers(-9, 9)] * G.arity).map(G.reduce)
    a, b = data.draw(coords), data.draw(coords)
    assert proj.apply(G.mul(a, b)) == proj.codomain.mul(proj.apply(a), proj.apply(b))


def test_in_cyclic():
    Z = FiniteAbelian((0,))
    assert in_cyclic(Z, (3,), (9,))
    assert not in_cyclic(Z, (3,), (10,))
    assert in_cyclic(Z, (0,), (0,))
    assert not in_cyclic(Z, (0,), (2,))
    Zn = FiniteAbelian((12,))
    assert in_cyclic(Zn, (8,), (4,))  # 2*8 = 16 = 4 mod 12
    assert not in_cyclic(Zn, (4,), (2,))
    # (1,0,0) has infinite order in ut:3:0 and (0,1,0) is not a power of it:
    # no power walk, an immediate error
    with pytest.raises(NotAbelian):
        in_cyclic(Unitriangular(3, 0), (1, 0, 0), (0, 1, 0))


def test_build_section_and_defects():
    A = generate_example("ball ut:3:3 radius=6")  # the full group
    q = QuotientView(H3, derived_subgroup(H3.generators()))
    sec = build_section(q, A)
    assert len(sec.table) == 9
    assert sec.pairs_checked == 81  # π(A) is the whole quotient: every pair
    # π(ball) = {0, ±e1, ±e2} in Z_3²: only the 17 pairs whose sum stays in it
    sec = build_section(q, generate_example("ball ut:3:3 radius=1"))
    assert (len(sec.table), sec.pairs_checked) == (5, 17)
    # section really is a section: reduce(apply(x)) == x
    for x in sec.table:
        assert q.reduce(sec.apply(x)) == x


def test_build_section_rejects_foreign_sets():
    from growthlab import ParentMismatch

    q = QuotientView(H3, derived_subgroup(H3.generators()))
    other = generate_example("ball ut:3:5 radius=1")
    with pytest.raises(ParentMismatch):
        build_section(q, other)


def test_pullback_check():
    A = generate_example("ball ut:3:3 radius=6")
    q = QuotientView(H3, derived_subgroup(H3.generators()))
    P = quotient_project(q, A)
    rep = pullback_check(q, A, P, 1, Fraction(1))
    assert rep.size == 27 and rep.lower_bound == Fraction(27)
    with pytest.raises(CertificateError):
        pullback_check(q, A, P, 1, Fraction(2))


def test_abelian_factorization_fields():
    cert = greedy_cover_certificate(_ball("ut:3:5"))
    fz = abelian_factorization(cert, 2)
    assert fz.step == 2
    assert fz.r == len(fz.cyclic_parts) == 0
    assert len(fz.H_part) == 125  # the whole group swallows the fibres
    assert fz.product_size == 125
    assert fz.density == Fraction(25)


def test_factorization_needs_genuine_step():
    from growthlab import StepTooLow

    A = generate_example("random-symmetric ab:101 size=15 seed=21")
    with pytest.raises(StepTooLow):
        abelian_factorization(greedy_cover_certificate(A), 2)


def test_step_reduction_mod3():
    cert = greedy_cover_certificate(_ball("ut:3:3"))
    red = step_reduction(cert, cert, 1, 2)
    assert red.step_in == 2
    assert red.N.order() == 3
    assert [len(f.aset) for f in red.factors] == [13]
    assert red.product_size == 13
    # Ã must lie in A^m, checked before any step is computed.
    wide = greedy_cover_certificate(generate_example("ball ut:3:3 radius=2"))
    with pytest.raises(ContainmentError):
        step_reduction(wide, cert, 1, 2)
    with pytest.raises(ParentMismatch):
        step_reduction(cert, greedy_cover_certificate(_ball("ut:3:5")), 1, 2)


def test_containment_radius_and_word_bound():
    A = _ball("ut:3:0")
    spec = ProgressionSpec((Element(HZ, (1, 0, 0)), Element(HZ, (0, 0, 1))), (1, 1))
    P = ordered_progression(spec)
    r_exact = containment_radius(P, A)
    r_word = word_radius_bound(spec, A)
    assert r_exact == 2
    assert r_word == 2  # radius-1 generators, bounds (1,1)
    assert P <= power(A, r_word)
    # a generator that never appears in any power is reported, not looped on
    xline = GSet(H3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], _reduced=True)
    with pytest.raises(ContainmentError):
        word_radius_bound(ProgressionSpec((Element(H3, (0, 1, 0)),), (1,)), xline)


def test_decompose_mod3_frozen():
    cert = greedy_cover_certificate(_ball("ut:3:3"))
    dec = decompose(cert)
    rep = dec.to_report()
    assert rep["size_H"] == 27
    assert rep["radius_H"] == 4
    assert rep["rank_final"] == 3
    assert rep["radius_P"] == 0
    assert rep["delta"] == "1"
    assert rep["xi"] == [0, 1, 2]
    assert dec.H.is_normal is True
    assert dec.delta > 0
    assert len(dec.pieces) == 3


def test_corollary_covers_mod3():
    cert = greedy_cover_certificate(_ball("ut:3:3"))
    dec = decompose(cert)
    rz = corollary_covers(dec, cert, "ruzsa")
    assert len(rz.X) == 1 and rz.rank == 6
    ch = corollary_covers(dec, cert, "chang")
    assert ch.t == 1 and list(ch.stage_sizes) == [1] and ch.rank == 7
    # Both branches build X·H before the witness scan, so the scan, streamed
    # or not, needs a budget of at least |X|·|H| (here 1·27).
    assert len(dec.H.elements) == 27
    for which in ("ruzsa", "chang"):
        with pytest.raises(BudgetExceeded) as ei:
            corollary_covers(dec, cert, which, budget=26)
        assert ei.value.op == "product"
        corollary_covers(dec, cert, which, budget=27)


def test_decompose_respects_config_budget():
    cert = greedy_cover_certificate(_ball("ut:3:5"))
    from growthlab import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        decompose(cert, budget=200)


# --------------------------------------------------------------------------
# Shared values against the plain versions


_SLICE_RECIPES = (
    "ball ut:3:3 radius=1",
    "ball ut:3:5 radius=1",
    "random-symmetric ut:3:7 size=5 seed=1",  # two cyclic fibres
    "random-symmetric ut:3:7 size=9 seed=3",  # one
    "random-symmetric ut:3:11 size=7 seed=0",  # one
    "ball ut:4:2 radius=1",
)


@pytest.mark.parametrize("recipe", _SLICE_RECIPES)
def test_slices_with_shared_powers_match_predicate_slices(recipe):
    cert = greedy_cover_certificate(generate_example(recipe))
    res, proj, fibres = _fibres(cert, 2, 10**6, power(cert.aset, 4))
    best = res.best
    H = best.H.elements.members
    # The predicates as they were: project each element when asked.
    plain = [lambda c: proj.apply(c) in H] + [
        lambda c, x=x: in_cyclic(proj.codomain, x.coords, proj.apply(c))
        for x in best.generators
    ]
    fac = abelian_factorization(cert, 2, 10**6)
    assert fac.H_part == power(cert.aset, 18).filter(plain[0])
    assert list(fac.cyclic_parts) == [power(cert.aset, 24).filter(p) for p in plain[1:]]
    # A's walk was kept; the first slice keeps X's.  Each later call replays
    # both and must equal a call on fresh copies of the sets, which keep no
    # walk.
    assert cert.aset._walk
    G = cert.aset.parent
    for fibre, member in zip(fibres, plain):
        fresh = ApproxCertificate(
            GSet(G, cert.aset.members, _reduced=True),
            GSet(G, cert.witness.members, _reduced=True),
            cert.square_size,
        )
        first = predicate_slice_certificate(cert, fibre)
        assert predicate_slice_certificate(cert, fibre) == first
        assert predicate_slice_certificate(fresh, member) == first
    if not recipe.startswith("ball ut:4"):
        red = step_reduction(cert, cert, 1, 2)
        assert list(red.factors) == [predicate_slice_certificate(cert, p) for p in plain]


@pytest.mark.parametrize("recipe", ("ball ut:3:5 radius=2", "random-symmetric ut:3:7 size=11 seed=17"))
def test_step_reduction_asks_fibre_predicates_only_about_a4(monkeypatch, recipe):
    # π is tabled over A⁴ only, so a predicate asked about anything else
    # would fail on its lookup.  A⁴ is multiplied out here without the walk.
    cert = greedy_cover_certificate(generate_example(recipe))
    expected = decompose(cert).to_report()
    asked = []
    real = pipeline._fibres

    def spy(cert, rank_max, budget, over):
        res, proj, fibres = real(cert, rank_max, budget, over)
        A2 = product(cert.aset, cert.aset)
        A4 = product(A2, A2).members
        return res, proj, [lambda c, f=f: asked.append(c in A4) or f(c) for f in fibres]

    monkeypatch.setattr(pipeline, "_fibres", spy)
    assert decompose(cert).to_report() == expected
    assert asked and all(asked)


@pytest.mark.parametrize("recipe", (
    "ball ut:3:5 radius=1",
    "random-symmetric ut:3:5 size=9 seed=2",
    "random-symmetric ut:3:7 size=11 seed=17",
))
def test_every_set_marked_a_group_in_decompose_is_one(monkeypatch, recipe):
    # `product` goes coset by coset with a set a SubgroupHandle holds, so
    # each such set must hold 1 and be closed under the plain double loop.
    marked = {}
    post = SubgroupHandle.__post_init__

    def recording(self):
        marked[id(self.elements)] = self.elements
        post(self)

    monkeypatch.setattr(SubgroupHandle, "__post_init__", recording)
    decompose(greedy_cover_certificate(generate_example(recipe)))
    assert len(marked) > 1
    for S in marked.values():
        mul = S.parent.mul
        assert S.parent.identity_coords() in S.members
        assert all(mul(a, b) in S.members for a in S.members for b in S.members)


def test_slice_recipes_cover_cyclic_fibres():
    # The list above must exercise cyclic fibres, not only the subgroup one.
    rs = []
    for recipe in _SLICE_RECIPES[2:5]:
        cert = greedy_cover_certificate(generate_example(recipe))
        rs.append(abelian_factorization(cert, 2).r)
    assert rs == [2, 1, 1]


# Known defects: H is the span of the normal generators `decompose`
# collects, which need not be normal, and a set in a finer quotient over the
# same base is refused by `quotient_project`.  Until they are fixed, the
# errors must not move.
@pytest.mark.parametrize("recipe,error,message", [
    ("ball ut:3:11 radius=1", ContainmentError, "assembled H is not normalised by A"),
    ("ball ut:3:13 radius=1", ContainmentError, "assembled H is not normalised by A"),
    ("ball ut:4:2 radius=1", ParentMismatch, "set does not live in the base of the quotient"),
])
def test_known_defects_keep_their_errors(recipe, error, message):
    cert = greedy_cover_certificate(generate_example(recipe))
    with pytest.raises(GrowthLabError) as ei:
        decompose(cert)
    assert (type(ei.value), str(ei.value)) == (error, message)


# Sets whose oracle takes the H = 2A−2A shortcut, with steps 2 and 3, and
# two whose decomposition fails on a known defect (the error must not move).
_SHORTCUT_RECIPES = (
    "ball ut:3:7 radius=2",
    "random-symmetric ut:3:5 size=9 seed=2",
    "ball ut:3:11 radius=1",
    "ball ut:4:2 radius=1",
    "random-symmetric ut:4:2 size=5 seed=1",
)


def _decompose_outcome(cert):
    try:
        dec = decompose(cert)
    except (ContainmentError, ParentMismatch) as e:
        return repr(e)
    return dec.to_report(), dec.H.elements.members


@pytest.mark.parametrize("recipe", _SHORTCUT_RECIPES)
def test_oracle_generators_give_the_same_decomposition_as_every_element(recipe, monkeypatch):
    # The step reduction lifts H's generators into its commutators.  With
    # none kept it lifts every element of H, as it did before the shortcut
    # kept them; N, H and the report must not change.
    cert = greedy_cover_certificate(generate_example(recipe))
    kept = []
    scan = oracle._body_is_subgroup

    def recording(A, D, budget):
        gens = scan(A, D, budget)
        if gens is not None:
            kept.append(len(gens) < len(D))
        return gens

    monkeypatch.setattr(oracle, "_body_is_subgroup", recording)
    with_gens = _decompose_outcome(cert)
    assert any(kept)
    monkeypatch.setattr(oracle, "_body_is_subgroup", lambda A, D, b: None if scan(A, D, b) is None else [])
    assert _decompose_outcome(cert) == with_gens


@pytest.mark.parametrize("group", ["ut:2:5", "ut:3:4", "ut:4:0", "prod:(ut:3:3);(ab:4)"])
def test_projection_table_matches_apply(group):
    # In a finite group also two views: over [G, G], whose image in the
    # abelianization is trivial, and over the normal closure of a generator,
    # whose image is not.
    G = parse_group(group)
    A = power(_ball(group), 3)
    sets = [A]
    if G.is_finite():
        gens = G.generators()
        for K in (derived_subgroup(gens), normal_closure(gens[:1], gens)):
            sets.append(quotient_project(QuotientView(G, K), A))
    for S in sets:
        proj = abelianization(S.parent)
        assert proj.table(S.members) == {c: proj.apply(c) for c in S.members}


def ref_pigeonhole(H_set, pieces):
    """The chosen u per sparse piece, each candidate scored by the chained
    product left·u·X_{i+1}···X_n (None at progression pieces)."""
    base = H_set.parent
    left, chosen = H_set, []
    for i, piece in enumerate(pieces):
        if piece.kind == "progression":
            chosen.append(None)
            left = product(left, piece.members)
            continue
        best, best_score = None, -1
        for u in piece.members.sorted_members():
            cur = product(left, GSet(base, [u], _reduced=True))
            for p in pieces[i + 1:]:
                cur = product(cur, p.members)
            if len(cur) > best_score:
                best, best_score = u, len(cur)
        chosen.append(best)
        left = product(left, GSet(base, [best], _reduced=True))
    return chosen


def _box_pool(G, r=2):
    if G.is_finite():
        return sorted(G.iter_coords())
    out = [()]
    for _ in range(G.arity):
        out = [c + (v,) for c in out for v in range(-r, r + 1)]
    return out


# Non-abelian groups: in an abelian one every candidate scores the same.
_PIGEON_GROUPS = (Unitriangular(3, 2), Unitriangular(3, 3), Unitriangular(3, 5), HZ)
_PIGEON_POOLS = {G: _box_pool(G) for G in _PIGEON_GROUPS}


@st.composite
def _pigeonhole_case(draw):
    G = draw(st.sampled_from(_PIGEON_GROUPS))
    pool = _PIGEON_POOLS[G]
    if G.is_finite():  # a cyclic, often non-normal H separates the scores most
        H = span([Element(G, draw(st.sampled_from(pool)))]).elements
    else:
        H = GSet.identity_set(G)
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("sparse", "sparse", "progression")))
        members = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        pieces.append(Piece(kind, GSet(G, members, _reduced=True)))
    return H, pieces


@settings(max_examples=200, deadline=None)
@given(_pigeonhole_case())
def test_pigeonhole_suffix_table_matches_chained_products(case):
    H, pieces = case
    suffix = _suffix_products([p.members for p in pieces], 10**6)
    chained = H
    for p in pieces:
        chained = product(chained, p.members)
    assert product(H, suffix[0]) == chained  # the containment check's set
    got = _pigeonhole(H, pieces, suffix, 10**6)
    assert [p.chosen.coords if p.kind == "sparse" else None for p in got] == ref_pigeonhole(H, pieces)


# The least budget at which `decompose` runs without BudgetExceeded, found
# by bisection.  The suffix table asks the budget for other pair counts
# (|H|·|S_0|, |left·u|·|S_{i+1}|) than the chained pigeonhole it replaced,
# and left these unchanged.  The ut:3:11 set guards the slice certificates:
# it needs 14,641 = |A|·|H|, the pairs of A·H, but 31,622 if C·S were
# multiplied out again.
_CHAINED_THRESHOLDS = (
    ("random-symmetric ut:3:3 size=5 seed=0", 169),  # |H| = 27
    ("random-symmetric ut:3:3 size=7 seed=1", 529),  # |H| = 27
    ("random-symmetric ut:3:5 size=5 seed=0", 625),  # |H| = 125
    ("random-symmetric ut:3:5 size=7 seed=0", 1369),  # |H| = 125
    ("random-symmetric ut:4:2 size=5 seed=0", 121),  # |H| = 16
    ("random-symmetric ut:4:2 size=5 seed=1", 144),  # |H| = 16
    ("ball ut:3:5 radius=2", 12321),
    ("random-symmetric ut:3:11 size=11 seed=111", 14641),  # |H| = 1331
)


@pytest.mark.parametrize("recipe,threshold", _CHAINED_THRESHOLDS)
def test_decompose_budget_outcome_matches_chained_pigeonhole(recipe, threshold):
    cert = greedy_cover_certificate(generate_example(recipe))
    with pytest.raises(BudgetExceeded):
        decompose(cert, budget=threshold - 1)
    got = decompose(cert, budget=threshold)
    assert got.to_report() == decompose(cert).to_report()
