"""Greedy search for large coset progressions inside the difference body 2A-2A.

This is a desk-scale, fully verified stand-in for the deep density theorems
of additive combinatorics: the search procedure is elementary (subgroup
lattice inside the difference body, popular-difference generator ranking,
greedy bound growth), but every produced object is exactly certified, so
downstream consumers never depend on the quality of the search.

All operations require the members of A to commute pairwise; the ambient
parent may be non-abelian or infinite, since everything happens inside the
finite difference body.
"""
from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from fractions import Fraction

from .config import resolve_budget
from .covering import RuzsaCover, ruzsa_cover
from .errors import BudgetExceeded, CertificateError, NotAbelian
from .groups import Element, commutator
from .gset import GSet, inverse_set, power, product
from .progressions import ProgressionSpec, ordered_progression
from .subgroups import SubgroupHandle


def _require_commuting(A: GSet) -> None:
    if A.parent.is_abelian():
        return  # structural: members of an abelian parent always commute
    elems = list(A.elements())
    for a, b in itertools.combinations(elems, 2):
        if not commutator(a, b).is_identity():
            raise NotAbelian("set members must commute pairwise")


def difference_body(A: GSet, budget: int | None = None) -> GSet:
    """2A - 2A, exactly.

    For A = A⁻¹ with 1 ∈ A this is A·A·A⁻¹·A⁻¹ = A⁴, taken from the power
    walk, which multiplies only the newest layer of each power.
    """
    budget = resolve_budget(budget)
    if A.contains_identity() and A.is_symmetric():
        return power(A, 4, budget)
    A2 = product(A, A, budget)
    neg = inverse_set(A)
    return product(product(A2, neg, budget), neg, budget)


def subgroups_within(D: GSet, budget: int | None = None) -> list[SubgroupHandle]:
    """Every subgroup of the parent contained in D (members must commute).

    Cyclic subgroups are found by walking powers until they cycle or escape D
    (escape is guaranteed for infinite order since D is finite), and general
    subgroups arise as joins, which for commuting sets are plain product sets.
    """
    budget = resolve_budget(budget)
    _require_commuting(D)
    parent = D.parent
    ident = parent.identity_coords()
    if ident not in D.members:
        return []
    mul, left_row = parent.mul, parent.left_row
    found: set[frozenset] = {frozenset((ident,))}
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
            if H2 <= H1 or H1 <= H2:
                continue  # nested: the join is the larger one, already known
            # Commuting subgroups: |H1·H2| = |H1||H2| / |H1 ∩ H2|, so a join
            # larger than D is known without multiplying it out.
            if len(H1) * len(H2) > len(D) * len(H1 & H2):
                continue
            join = set()
            for a in H1:
                join.update(left_row(a, H2))
            if not join <= D.members:
                continue
            fs = frozenset(join)
            if fs not in known:
                known.add(fs)
                work.append(fs)
                if len(known) > budget:
                    raise BudgetExceeded("subgroups_within", len(known), budget)
    handles = [
        SubgroupHandle(parent, GSet(parent, members, _reduced=True))
        for members in known
    ]
    handles.sort(key=lambda h: (h.order(), h.elements.sorted_members()))
    return handles


@dataclass(frozen=True)
class CosetProgression:
    """H + P with the realized set re-verified against its own definition.

    `budget` (init-only, not a field) bounds the re-verification.
    """

    H: SubgroupHandle
    generators: tuple[Element, ...]
    bounds: tuple[int, ...]
    realized: GSet
    budget: InitVar[int | None] = None

    def __post_init__(self, budget):
        if self.rank:
            budget = resolve_budget(budget)
            spec = ProgressionSpec(self.generators, self.bounds)
            P = ordered_progression(spec, budget)
            check = product(self.H.elements, P, budget)
        else:
            check = self.H.elements
        if check.members != self.realized.members:
            raise CertificateError("realized set disagrees with H + P")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def spec(self) -> ProgressionSpec:
        return ProgressionSpec(self.generators, self.bounds)


@dataclass(frozen=True)
class OracleResult:
    best: CosetProgression
    density: Fraction
    search_log: int
    body_size: int


def _grow_slot(
    realized: frozenset, x_coords: tuple, D: GSet
) -> tuple[frozenset, int, bool]:
    """Extend realized by multiples of x while staying inside D.

    Returns (R_L, L, fixed).  With X_L = {x^i : |i| <= L}, R_L = R_0·X_L, so
    R_{L+1} = R_L ∪ Δ_L·x ∪ Δ_L·x⁻¹ where Δ_L = R_L − R_{L-1} (Δ_0 = R_0):
    each step multiplies only the elements the previous step added, and
    growth stops at the first product outside D.  `fixed` is true when step 0
    adds nothing, that is R_0·x = R_0.
    """
    parent = D.parent
    right_row = parent.right_row
    steps = (x_coords, parent.inv(x_coords))
    inside = D.members
    cur = frontier = realized
    L = 0
    while True:
        new = set()
        for s in steps:
            for y in right_row(frontier, s):
                if y not in cur:
                    if y not in inside:
                        return cur, L, False
                    new.add(y)
        if not new:
            return cur, L, L == 0
        cur = cur | new
        frontier = new
        L += 1


def _join_cyclic(S: frozenset, x_coords: tuple, right_row) -> frozenset:
    """S·⟨x⟩ for a subgroup S and an x of finite order, all commuting.

    Walks the cosets S·x, S·x², ... multiplying only the newest one, until
    it returns to S.
    """
    out = set(S)
    coset = S
    while True:
        coset = right_row(coset, x_coords)
        if coset[0] in S:
            return frozenset(out)
        out.update(coset)


def _popular_differences(A: GSet, D: GSet) -> list[tuple]:
    """D∖{1} by popularity |A ∩ A·d|, most popular first, ties canonical.

    |A ∩ A·d| counts the pairs (a, a') ∈ A² with a⁻¹a' = d, so |A|² products
    score every d at once.  Members commute, so a⁻¹a' = a'·b·b⁻¹·a⁻¹ lies in
    D = A·A·A⁻¹·A⁻¹; a d of D that no pair hits scores 0.
    """
    parent = A.parent
    left_row, inv = parent.left_row, parent.inv
    popularity = dict.fromkeys(D.members, 0)
    for a in A.members:
        for d in left_row(inv(a), A.members):
            popularity[d] += 1
    del popularity[parent.identity_coords()]
    return sorted(popularity, key=lambda d: (-popularity[d], d))


def find_coset_progression(
    A: GSet,
    rank_max: int = 3,
    budget: int | None = None,
) -> OracleResult:
    """Best coset progression H + P inside 2A - 2A found by greedy search.

    For every subgroup of the difference body, generator candidates are
    ranked by the popular-difference count |A ∩ (A+d)| (ties by canonical
    order) and adopted only when they strictly grow the realized set; the
    winner maximizes realized size, with ties preferring larger subgroup
    part, then lower rank, then canonical generators.

    The search never multiplies out a candidate whose answer is known.  All
    members commute, so for each subgroup it keeps `stab`, a subgroup with
    R·s = R for every s in it (R the realized set; at first R = H = stab).
    A candidate in `stab` would add nothing and is skipped, though still
    counted in `search_log`; one that adds nothing at step 0 fixes R and is
    joined into `stab`.  Adopting a generator replaces R by R·{x^i}, whose
    stabiliser contains that of R, so `stab` stays valid.
    """
    budget = resolve_budget(budget)
    if len(A) == 0:
        raise ValueError("oracle on the empty set")
    _require_commuting(A)
    parent = A.parent
    D = difference_body(A, budget)
    subs = subgroups_within(D, budget)
    candidates = _popular_differences(A, D)
    examined = 0
    best = None
    best_key = None
    for H in subs:
        realized = stab = H.elements.members
        gens: list[Element] = []
        bounds: list[int] = []
        for x in candidates:
            if len(gens) >= rank_max:
                break
            examined += 1
            if x in stab:
                continue
            trial, L, fixed = _grow_slot(realized, x, D)
            if L:
                realized = trial
                gens.append(Element(parent, x))
                bounds.append(L)
            elif fixed:
                stab = _join_cyclic(stab, x, parent.right_row)
        cp = CosetProgression(
            H, tuple(gens), tuple(bounds), GSet(parent, realized, _reduced=True), budget
        )
        key = (
            -len(cp.realized),
            -cp.H.order(),
            cp.rank,
            tuple(g.coords for g in cp.generators),
        )
        if best is None or key < best_key:
            best, best_key = cp, key
    return OracleResult(
        best=best,
        density=Fraction(len(best.realized), len(A)),
        search_log=examined,
        body_size=len(D),
    )


@dataclass(frozen=True)
class SandersCover:
    """A inside X + H + 2P with the Plünnecke size bound checked."""

    cover: RuzsaCover
    doubled: GSet
    ratio: Fraction

    @property
    def X(self) -> GSet:
        return self.cover.X


def derive_sanders_cover(
    A: GSet,
    res: OracleResult,
    budget: int | None = None,
    K: Fraction | None = None,
) -> SandersCover:
    """Turn an oracle hit into a verified cover A ⊆ X + H + 2P.

    The Ruzsa cover of A by H+P supplies X; doubling P's bounds absorbs the
    difference (H+P) - (H+P), and |H+2P| ≤ K^8 |A| holds because H+2P sits
    inside 4A - 4A.
    """
    budget = resolve_budget(budget)
    cp = res.best
    hull = cp.realized
    rc = ruzsa_cover(A, hull, budget)
    if cp.rank:
        P2 = ordered_progression(cp.spec().scaled(2), budget)
        doubled = product(cp.H.elements, P2, budget)
    else:
        doubled = cp.H.elements
    covered = product(rc.X, doubled, budget)
    if not A <= covered:
        raise CertificateError("doubled progression failed to absorb the difference")
    if K is None:
        K = Fraction(len(product(A, A, budget)), len(A))
    if len(doubled) > K ** 8 * len(A):
        raise CertificateError("doubled hull exceeds the eightfold-growth bound")
    ratio = Fraction(rc.product_size, len(hull))
    return SandersCover(cover=rc, doubled=doubled, ratio=ratio)
