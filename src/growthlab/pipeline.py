"""Step-reduction pipeline: abelianize, factor, slice, quotient, reassemble.

The driver `decompose` turns an approximate-group certificate over a
nilpotent backend into a normal subgroup H together with an ordered list of
progression and sparse pieces whose product (with H pulled to the left)
covers A·H.  Every containment along the way is re-verified exactly on the
enumerated sets; growth exponents (radii, density) are measured, never
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter

from .approx import ApproxCertificate, certify, predicate_slice_certificate
from .config import resolve_budget
from .covering import chang_cover, ruzsa_cover, verify_translate_cover
from .errors import (
    BudgetExceeded,
    CertificateError,
    ContainmentError,
    NotAbelian,
    ParentMismatch,
    StepDropFailed,
    StepTooLow,
)
from .groups import Element, FiniteAbelian
from .gset import GSet, _least_powers, power, power_chain, product
from .oracle import OracleResult, derive_sanders_cover, find_coset_progression
from .progressions import ProgressionSpec, ordered_progression
from .subgroups import (
    QuotientView,
    SubgroupHandle,
    _commutator_levels,
    check_normal,
    normal_closure,
    quotient_project,
    span,
    step_of_generated,
)


# The oracle's rank cap wherever `decompose` runs the oracle.
DECOMPOSE_RANK_MAX = 3


# --------------------------------------------------------------------------
# Projections onto the abelianization


class Projection:
    """A homomorphism onto an abelian codomain with a chosen section.

    `kernel_gens` generate the kernel (as domain elements); the section is a
    set-theoretic right inverse used to lift generators, never assumed to be
    a homomorphism.
    """

    __slots__ = ("domain", "codomain", "_fn", "_section", "kernel_gens")

    def __init__(self, domain, codomain, fn, section, kernel_gens=()):
        self.domain = domain
        self.codomain = codomain
        self._fn = fn
        self._section = section
        self.kernel_gens = tuple(kernel_gens)

    def apply(self, coords) -> tuple:
        return self.codomain.reduce(self._fn(tuple(coords)))

    def table(self, members) -> dict:
        """{c: π(c)} for canonical domain coordinates, in one map.

        Every rule's map sends canonical coordinates to canonical ones, so
        no element needs `apply`'s reduction.
        """
        return dict(zip(members, map(self._fn, members)))

    def image(self, A: GSet) -> GSet:
        if A.parent != self.domain:
            raise ParentMismatch("set lives outside the projection domain")
        return GSet(self.codomain, (self._fn(c) for c in A.members))

    def section_element(self, coords) -> Element:
        return Element(self.domain, self.domain.reduce(self._section(tuple(coords))))


def _view_abelianization(parent: QuotientView) -> Projection:
    inner = abelianization(parent.base)
    K_image = inner.image(parent.kernel.elements)
    identity = inner.codomain.identity_coords()
    if K_image.members == frozenset((identity,)):
        codomain = inner.codomain
        fn = inner._fn
    else:
        K_handle = SubgroupHandle(inner.codomain, K_image, is_normal=True)
        codomain = QuotientView(inner.codomain, K_handle)

        def fn(c, _inner=inner._fn, _q=codomain):
            return _q.reduce(_inner(c))

    def section(w, _inner=inner, _v=parent):
        return _v.reduce(_inner._section(tuple(w)))

    kernel, seen = [], set()
    for g in inner.kernel_gens:
        c = parent.reduce(g.coords)
        if c != parent.identity_coords() and c not in seen:
            seen.add(c)
            kernel.append(Element(parent, c))
    return Projection(parent, codomain, fn, section, kernel)


def abelianization(parent) -> Projection:
    """Projection of the backend onto its commutator quotient.

    A base backend keeps its abelian coordinates, with their moduli.  The
    section writes them into zeros, and the unit vectors of the other
    coordinates generate the kernel.
    """
    if isinstance(parent, QuotientView):
        return _view_abelianization(parent)
    keep = parent.abelian_coords
    moduli = parent.coord_moduli
    codomain = FiniteAbelian(tuple(moduli[k] for k in keep))
    # itemgetter of one index returns the entry, not a 1-tuple.
    fn = itemgetter(*keep) if len(keep) > 1 else lambda c: (c[keep[0]],)
    zeros = parent.identity_coords()

    def section(w):
        out = list(zeros)
        for k, v in zip(keep, w):
            out[k] = v
        return tuple(out)

    kernel = [
        Element(parent, parent.reduce(zeros[:k] + (1,) + zeros[k + 1:]))
        for k in range(parent.arity)
        if k not in keep
    ]
    return Projection(parent, codomain, fn, section, kernel)


# --------------------------------------------------------------------------
# Cyclic membership in abelian codomains


def _free_ratio_test(moduli, x):
    """w ∈ ⟨x⟩ as a ratio check, when a free coordinate of x pins the exponent.

    Returns None when x is 0 on every free coordinate.  Otherwise the first
    free coordinate j with x_j ≠ 0 fixes k = w_j / x_j once per query, and
    every coordinate is checked against k·x.
    """
    pins = [j for j, m in enumerate(moduli) if m == 0 and x[j] != 0]
    if not pins:
        return None
    j = pins[0]
    xj = x[j]
    rows = tuple(zip(x, moduli))

    def test(w):
        k = w[j] // xj  # inexact division fails the check at j itself
        for wt, (xt, mt) in zip(w, rows):
            if mt == 0:
                if wt != k * xt:
                    return False
            elif (k * xt - wt) % mt != 0:
                return False
        return True

    return test


def in_cyclic(parent, x_coords, w_coords) -> bool:
    """Decide w ∈ ⟨x⟩ in an abelian parent (plain or quotient-presented).

    Other parents raise NotAbelian: a power walk there need not end.  A
    finite ⟨x⟩ larger than the budget raises BudgetExceeded.
    """
    base = parent.base if isinstance(parent, QuotientView) else parent
    if not isinstance(base, FiniteAbelian):
        raise NotAbelian(f"in_cyclic needs an ab: parent or a quotient of one, not {parent!r}")
    test = _cyclic_membership(parent, x_coords, resolve_budget(None))
    return test(parent.reduce(tuple(w_coords)))


def _cyclic_membership(parent, x_coords, budget: int):
    """Test w ∈ ⟨x⟩ for reduced coordinates w of an abelian parent.

    In an `ab:` parent where a free coordinate of x is nonzero, each query
    is one ratio check.  Otherwise, if ⟨x⟩ is finite it is enumerated once
    (ord(x) products, under the budget), so each query is one set lookup.
    An infinite quotient-presented parent builds one test in its base and
    asks it for w·k, k over the (finite) kernel.
    """
    x = parent.reduce(tuple(x_coords))
    if isinstance(parent, FiniteAbelian):
        test = _free_ratio_test(parent.moduli, x)
        if test is not None:
            return test
    elif not parent.is_finite():
        base = parent.base
        in_base = _cyclic_membership(base, x, budget)
        kernel = parent.kernel.elements.members
        return lambda w: any(in_base(base.mul(w, k)) for k in kernel)
    identity = parent.identity_coords()
    members = {identity}
    cur = x
    while cur != identity:
        members.add(cur)
        if len(members) > budget:
            raise BudgetExceeded("cyclic membership", len(members), budget)
        cur = parent.mul(cur, x)
    return members.__contains__


# --------------------------------------------------------------------------
# Section maps and pullbacks through a quotient


@dataclass(frozen=True)
class SectionMap:
    """Least-coordinate preimage choice φ: π(A) → A with verified defects.

    `pairs_checked` counts the pairs (x, y) with x, y, xy in π(A) whose
    defect (ii) was verified.
    """

    quotient: QuotientView
    table: dict
    pairs_checked: int

    def apply(self, coords) -> tuple:
        return self.table[self.quotient.reduce(tuple(coords))]


def build_section(q: QuotientView, A: GSet, budget: int | None = None) -> SectionMap:
    """Choose φ(x) ∈ A per coset of π(A), then verify both defect bounds.

    (i) every a ∈ A satisfies a·φ(π(a))⁻¹ ∈ A² ∩ N;
    (ii) whenever x, y, xy all lie in π(A), the defect (φ(x)φ(y))⁻¹φ(xy)
    lies in A³ ∩ N.  Failures signal an implementation bug, not bad input.
    """
    budget = resolve_budget(budget)
    if A.parent != q.base:
        raise ParentMismatch("section wants a set in the base group")
    base = q.base
    table: dict[tuple, tuple] = {}
    for a in A.sorted_members():
        key = q.reduce(a)
        if key not in table:
            table[key] = a
    A2, A3 = power_chain(A, 3, budget)[1:]
    N = q.kernel.elements.members
    for a in A.members:
        defect = base.mul(a, base.inv(table[q.reduce(a)]))
        if defect not in A2.members or defect not in N:
            raise CertificateError("section defect (i) escaped A^2 ∩ N")
    keys = sorted(table)
    pairs = 0
    for x in keys:
        for y in keys:
            xy = q.mul(x, y)
            if xy not in table:
                continue
            pairs += 1
            fx_fy = base.mul(table[x], table[y])
            defect = base.mul(base.inv(fx_fy), table[xy])
            if defect not in A3.members or defect not in N:
                raise CertificateError("section defect (ii) escaped A^3 ∩ N")
    return SectionMap(q, table, pairs)


@dataclass(frozen=True)
class PullbackReport:
    """Exact count of A^{m+2} above a dense subset of the quotient image."""

    size: int
    lower_bound: Fraction


def pullback_check(
    q: QuotientView,
    A: GSet,
    P: GSet,
    m: int,
    c: Fraction,
    budget: int | None = None,
) -> PullbackReport:
    """Verify |π⁻¹(P) ∩ A^{m+2}| ≥ c|A| for P ⊆ π(A^m) with |P| ≥ c|π(A)|."""
    budget = resolve_budget(budget)
    if A.parent != q.base:
        raise ParentMismatch("pullback wants a set in the base group")
    c = Fraction(c)
    piAm = quotient_project(q, power(A, m, budget))
    if not P.members <= piAm.members:
        raise CertificateError("P is not inside the projected power of A")
    piA = quotient_project(q, A)
    if len(P) < c * len(piA):
        raise CertificateError("P is too sparse for the stated density")
    Am2 = power(A, m + 2, budget)
    hits = Am2.filter(lambda w: q.reduce(w) in P.members)
    bound = c * len(A)
    if len(hits) < bound:
        raise ContainmentError("pullback fell below c|A|")
    return PullbackReport(len(hits), bound)


# --------------------------------------------------------------------------
# Abelian factorization (literal high-power fibres over the oracle hit)


@dataclass(frozen=True)
class Factorization:
    """Fibres of A¹⁸/A²⁴ over the oracle's coset progression."""

    H_part: GSet
    cyclic_parts: tuple[GSet, ...]
    product_size: int | None
    density: Fraction | None
    oracle: OracleResult
    projection: Projection
    step: int

    @property
    def r(self) -> int:
        return len(self.cyclic_parts)


def abelian_factorization(
    cert: ApproxCertificate,
    rank_max: int = 3,
    budget: int | None = None,
) -> Factorization:
    """Split A into a subgroup fibre and cyclic fibres over its image.

    Runs the abelian oracle on the commutator-quotient image of A, then
    takes H_part = A¹⁸ ∩ π⁻¹(H) and one A²⁴ ∩ π⁻¹(⟨x_i⟩) per progression
    generator.  On a finite backend the exact product of the parts and its
    density against |A| are recorded; on an infinite one they stay None,
    because the product blows the pair budget while the fibres themselves
    stay finite.
    """
    budget = resolve_budget(budget)
    A = cert.aset
    step = step_of_generated(list(A.elements()), budget)
    if step < 2:
        raise StepTooLow(f"factorization needs step >= 2, got {step}")
    chain = power_chain(A, 24, budget)
    A18, A24 = chain[17], chain[23]
    res, proj, fibres = _fibres(cert, rank_max, budget, A24)
    H_part = A18.filter(fibres[0])
    parts = [A24.filter(f) for f in fibres[1:]]
    product_size = density = None
    if A.parent.is_finite():
        prod = H_part
        for part in parts:
            prod = product(prod, part, budget)
        product_size = len(prod)
        density = Fraction(product_size, len(A))
    return Factorization(H_part, tuple(parts), product_size, density, res, proj, step)


def _fibres(cert: ApproxCertificate, rank_max: int, budget: int, over: GSet):
    """The oracle result on π(A), the projection π and the fibre predicates.

    One predicate per factor, π⁻¹(H) first, then π⁻¹(⟨x_i⟩).  They look
    π(c) up in a table built once over the members of `over`, so they
    answer only for those.
    """
    proj = abelianization(cert.aset.parent)
    res = find_coset_progression(proj.image(cert.aset), rank_max=rank_max, budget=budget)
    pi = proj.table(over.members)
    H_members = res.best.H.elements.members
    fibres = [lambda c: pi[c] in H_members]
    for x in res.best.generators:
        in_x = _cyclic_membership(proj.codomain, x.coords, budget)
        fibres.append(lambda c, in_x=in_x: in_x(pi[c]))
    return res, proj, fibres


# --------------------------------------------------------------------------
# Step reduction


@dataclass(frozen=True)
class StepReduction:
    """One rung down the nilpotency ladder for Ã ⊆ A^m."""

    N: SubgroupHandle
    N_radius: int
    r: int
    factors: tuple[ApproxCertificate, ...]
    step_in: int
    reduced_parent: object | None  # None: factors already live low enough
    product_size: int


def containment_radius(S: GSet, A: GSet, budget: int | None = None) -> int:
    """Least k with S ⊆ A^k (A⁰ = {1}); errors if S escapes ⟨A⟩."""
    budget = resolve_budget(budget)
    if S.parent != A.parent:
        raise ParentMismatch("radius needs a common parent")
    if S.members == frozenset((A.parent.identity_coords(),)):
        return 0
    return _least_powers(
        A, [S.members], budget, "containment_radius",
        "set escapes the group generated by A",
    )[0]


def word_radius_bound(spec: ProgressionSpec, A: GSet, budget: int | None = None) -> int:
    """Certified exponent k with the realized progression inside A^k.

    Measures each generator's radius exactly (generators are short words,
    so those balls stay small) and composes them: every realized element is
    an ordered product of at most ``bound_i`` copies of g_i^{±1}, hence lies
    in A to the sum of radius·bound.  An upper bound rather than the minimum:
    on infinite backends the minimal exponent can sit behind balls of
    millions of elements, while this bound costs a few tiny walks.
    """
    budget = resolve_budget(budget)
    identity = A.parent.identity_coords()
    gens = [g.coords for g in spec.generators]
    moved = [c for c in gens if c != identity]
    found = _least_powers(
        A, [frozenset((c,)) for c in moved], budget,
        "word_radius_bound", "a generator escapes the group generated by A",
    )
    radius = dict(zip(moved, found))
    return sum(radius.get(c, 0) * b for c, b in zip(gens, spec.bounds))


def step_reduction(
    cert: ApproxCertificate,
    ambient: ApproxCertificate,
    m: int,
    rank_max: int = 3,
    budget: int | None = None,
) -> StepReduction:
    """Split Ã ⊆ A^m into slice factors whose images drop in step.

    The oracle's fibres over π(Ã) select the slices A_0 = Ã² ∩ π⁻¹(H) and
    A_i = Ã² ∩ π⁻¹(⟨x_i⟩); N is the normal closure (under A) of the s̃-fold
    left-normed commutators of generators of π⁻¹(H); each factor's image in
    the quotient by N is verified to generate a group of strictly smaller
    step.  Abelian input degenerates to a single factor Ã with N trivial.
    """
    budget = resolve_budget(budget)
    _check_inside_power(cert, ambient, m, budget)
    step = step_of_generated(list(cert.aset.elements()), budget)
    return _reduce_step(cert, ambient, rank_max, budget, step)[0]


def _check_inside_power(
    cert: ApproxCertificate, ambient: ApproxCertificate, m: int, budget: int
) -> None:
    """Refuse Ã unless it lies in A^m (or in its image, for a quotient view)."""
    parent = cert.aset.parent
    amb_parent = ambient.aset.parent
    if isinstance(parent, QuotientView):
        if parent.base != amb_parent:
            raise ParentMismatch("quotient does not sit over the ambient group")
        shadow = quotient_project(parent, power(ambient.aset, m, budget))
    elif parent == amb_parent:
        shadow = power(ambient.aset, m, budget)
    else:
        raise ParentMismatch("certificate lives outside the ambient group")
    if not cert.aset.members <= shadow.members:
        raise ContainmentError("the set is not inside the declared power of A")


def _reduce_step(
    cert: ApproxCertificate,
    ambient: ApproxCertificate,
    rank_max: int,
    budget: int,
    step: int,
):
    """step_reduction of a set whose step is known and which the caller
    has checked to lie inside A^m (`_check_inside_power`).

    Also returns what the step-drop check and the factor product already
    built: each factor's set in the reduced parent, the step of each, and
    the product of the factors in order.
    """
    A_t = cert.aset
    parent = A_t.parent
    amb_parent = ambient.aset.parent
    is_view = isinstance(parent, QuotientView)
    trivial_N = SubgroupHandle(parent, GSet.identity_set(parent), (), True)
    if step <= 1:
        red = StepReduction(trivial_N, 0, 1, (cert,), step, None, len(A_t))
        return red, [A_t], [step], A_t

    # The slice certificates ask the predicates only about members of A² and
    # A⁴, and A² ⊆ A⁴ because 1 ∈ A, so π is tabled over A⁴.
    res, proj, fibres = _fibres(cert, rank_max, budget, power(A_t, 4, budget))
    factors = [predicate_slice_certificate(cert, member, budget) for member in fibres]

    lifted = [proj.section_element(h.coords) for h in res.best.H.gen_elements()]
    g0_gens = lifted + [Element(parent, g.coords) for g in proj.kernel_gens]
    gamma = _commutator_levels(parent, g0_gens, step, budget, "step_reduction")[-1]
    if not gamma:
        N = trivial_N
        N_radius = 0
        reduced_parent = None
        reduced_sets = [f.aset for f in factors]
    else:
        amb = quotient_project(parent, ambient.aset) if is_view else ambient.aset
        N = normal_closure([Element(parent, c) for c in gamma], amb, budget)
        N_radius = containment_radius(N.elements, amb, budget)
        if is_view:
            seed = [Element(amb_parent, c) for c in N.elements.members]
            seed += parent.kernel.gen_elements()
            N_flat = normal_closure(seed, ambient.aset, budget)
            reduced_parent = QuotientView(amb_parent, N_flat)
        else:
            reduced_parent = QuotientView(amb_parent, N)
        reduced_sets = [quotient_project(reduced_parent, f.aset) for f in factors]

    steps = []
    for k, S in enumerate(reduced_sets):
        dropped = step_of_generated(list(S.elements()), budget)
        if dropped >= step:
            raise StepDropFailed(
                f"factor {k} kept step {dropped} (input step {step})"
            )
        steps.append(dropped)

    prod = factors[0].aset
    for f in factors[1:]:
        prod = product(prod, f.aset, budget)
    red = StepReduction(
        N, N_radius, len(factors) - 1, tuple(factors), step,
        reduced_parent, len(prod),
    )
    return red, reduced_sets, steps, prod


# --------------------------------------------------------------------------
# Full decomposition


@dataclass(frozen=True)
class Piece:
    """One factor of the covering product, in base-group coordinates."""

    kind: str  # "progression" | "sparse"
    members: GSet
    spec: ProgressionSpec | None = None
    chosen: Element | None = None


@dataclass(frozen=True)
class Decomposition:
    """A·H ⊆ H·(ordered product of pieces), with measured exponents."""

    H: SubgroupHandle
    pieces: tuple[Piece, ...]
    xi: tuple[int, ...]
    P_ord_final: ProgressionSpec | None
    P_realized: GSet
    step: int
    size_A: int
    K_upper: int
    radius_H: int
    radius_P: int
    rank_final: int
    delta: Fraction
    logs: tuple[str, ...]

    def to_report(self) -> dict:
        return {
            "step": self.step,
            "size_A": self.size_A,
            "K_upper": self.K_upper,
            "size_H": self.H.order(),
            "radius_H": self.radius_H,
            "rank_final": self.rank_final,
            "radius_P": self.radius_P,
            "delta": str(self.delta),
            "xi": list(self.xi),
            "logs": list(self.logs),
        }


def _expand(
    cert: ApproxCertificate,
    ambient: ApproxCertificate,
    m: int,
    budget: int,
    logs: list[str],
    depth: int,
    step: int,
) -> tuple[list[Element], list[Piece]]:
    """Recursive cover: sparse + progression pieces plus normal generators.

    `step` is the nilpotency step of cert.aset, known to the caller.  The
    normal generators are, per base case, the members of the oracle's H
    other than 1 and the generators of the kernel it sits over, and per step
    the generators of the kernel quotiented out.
    """
    parent = cert.aset.parent
    is_view = isinstance(parent, QuotientView)
    base = parent.base if is_view else parent

    if step <= 1:
        res = find_coset_progression(cert.aset, DECOMPOSE_RANK_MAX, budget)
        sc = derive_sanders_cover(cert, res, budget)
        logs.append(
            f"depth {depth}: base case |A~|={len(cert.aset)} rank={res.best.rank} "
            f"|H~|={res.best.H.order()} |X|={len(sc.X)}"
        )
        seeds = [Element(base, c) for c in res.best.H.elements.members]
        if is_view:
            seeds += parent.kernel.gen_elements()
        normal_gens = [e for e in seeds if e.coords != base.identity_coords()]
        pieces = [Piece("sparse", GSet(base, sc.X.members))]
        if res.best.rank:
            spec2 = res.best.spec().scaled(2)
            gens_b = tuple(Element(base, g.coords) for g in spec2.generators)
            spec_b = ProgressionSpec(gens_b, spec2.bounds)
            pieces.append(
                Piece("progression", ordered_progression(spec_b, budget), spec_b)
            )
        return normal_gens, pieces

    _check_inside_power(cert, ambient, m, budget)
    red, reduced_sets, steps, B = _reduce_step(
        cert, ambient, DECOMPOSE_RANK_MAX, budget, step
    )
    rc = ruzsa_cover(cert.aset, B, budget)
    logs.append(
        f"depth {depth}: step {red.step_in} -> r={red.r} |N|={red.N.order()} "
        f"N_radius={red.N_radius} |B|={len(B)} |X_top|={len(rc.X)}"
    )
    normal_gens: list[Element] = []
    view = red.reduced_parent
    if view is not None:
        normal_gens.extend(view.kernel.gen_elements())
        sub_certs = [
            certify(S, quotient_project(view, f.witness), budget)
            for S, f in zip(reduced_sets, red.factors)
        ]
    else:
        sub_certs = list(red.factors)
    pieces: list[Piece] = [Piece("sparse", GSet(base, rc.X.members))]
    factor_pieces: list[list[Piece]] = []
    for f, sub_step in zip(sub_certs, steps):
        sub_gens, sub_pieces = _expand(
            f, ambient, 2 * m, budget, logs, depth + 1, sub_step
        )
        normal_gens.extend(sub_gens)
        factor_pieces.append(sub_pieces)
    for plist in factor_pieces:
        pieces.extend(plist)
    for plist in reversed(factor_pieces):
        pieces.extend(plist)
    return normal_gens, pieces


def _suffix_products(sets: list[GSet], budget: int) -> list[GSet]:
    """[S_0, ..., S_{n-1}] with S_i = X_i·X_{i+1}···X_{n-1}, built right to left."""
    out: list[GSet] = []
    for S in reversed(sets):
        out.append(product(S, out[-1], budget) if out else S)
    out.reverse()
    return out


def _pigeonhole(
    H_set: GSet, pieces: list[Piece], suffix: list[GSet], budget: int
) -> list[Piece]:
    """Greedy exact choice of u_i per sparse piece, left to right.

    Chosen positions contribute their singleton; positions not yet decided
    contribute their full set, so each maximization is a union-bound step
    and |H·∏(chosen)| never falls under |H·∏(full)| / ∏|X_i|.  `suffix` is
    `_suffix_products` of the pieces' sets: a candidate u at position i
    scores |left·u·S_{i+1}|, one product per candidate.
    """
    final: list[Piece] = []
    left = H_set
    base = H_set.parent
    for i, piece in enumerate(pieces):
        if piece.kind == "progression":
            final.append(piece)
            left = product(left, piece.members, budget)
            continue
        candidates = piece.members.sorted_members()
        if len(candidates) == 1:
            best = candidates[0]
        else:
            rest = suffix[i + 1] if i + 1 < len(suffix) else None
            best, best_score = None, -1
            for u in candidates:
                shifted = product(left, GSet(base, [u], _reduced=True), budget)
                score = len(shifted if rest is None else product(shifted, rest, budget))
                if score > best_score:
                    best, best_score = u, score
        final.append(replace(piece, chosen=Element(base, best)))
        left = product(left, GSet(base, [best], _reduced=True), budget)
    return final


def decompose(cert: ApproxCertificate, budget: int | None = None) -> Decomposition:
    """Cover A·H by H times an ordered product of progression/sparse pieces.

    Recursion on the step: step reduction splits the set into slice factors,
    a Ruzsa cover re-expresses the set through their product, and abelian
    base cases emit a sparse cover plus a doubled coset progression.  H is
    the joint span of every normal contribution, re-verified normal under
    conjugation by A, and the final containment A·H ⊆ H·∏pieces is checked
    exactly in the base group.  Density δ = |H·P_ord| / |A·H| is measured
    and recorded (only positivity is asserted).
    """
    budget = resolve_budget(budget)
    A = cert.aset
    parent = A.parent
    if isinstance(parent, QuotientView):
        raise ValueError("decompose expects a set in a base backend")
    logs: list[str] = []
    step = step_of_generated(list(A.elements()), budget)

    if cert.K_lower < 2:
        H = span(list(A.elements()), budget)
        H = check_normal(H, list(A.elements()), budget)
        AH = product(A, H.elements, budget)
        if not AH.members <= H.elements.members:
            raise ContainmentError("span of A failed to absorb A·H")
        logs.append(f"small doubling {cert.K_lower}: H = <A>, |H|={H.order()}")
        radius_H = containment_radius(H.elements, A, budget)
        return Decomposition(
            H, (), (), None, GSet.identity_set(parent), step, len(A),
            cert.K_upper, radius_H, 0, 0, Fraction(1), tuple(logs),
        )

    gen_pool, raw_pieces = _expand(cert, cert, 1, budget, logs, 0, step)
    if gen_pool:
        H = span(gen_pool, budget)
    else:
        H = SubgroupHandle(parent, GSet.identity_set(parent), (), True)
    H = check_normal(H, list(A.elements()), budget)
    if H.is_normal is not True:
        raise ContainmentError("assembled H is not normalised by A")

    suffix = _suffix_products([p.members for p in raw_pieces], budget)
    covered = product(H.elements, suffix[0], budget)
    AH = product(A, H.elements, budget)
    if not AH.members <= covered.members:
        raise ContainmentError("H·(product of pieces) missed part of A·H")

    pieces = _pigeonhole(H.elements, raw_pieces, suffix, budget)
    del suffix, covered  # the largest sets so far; free them before P_realized
    gens: list[Element] = []
    bounds: list[int] = []
    for p in pieces:
        if p.kind == "progression":
            gens.extend(p.spec.generators)
            bounds.extend(p.spec.bounds)
        else:
            gens.append(p.chosen)
            bounds.append(1)
    P_spec = ProgressionSpec(tuple(gens), tuple(bounds))
    P_realized = ordered_progression(P_spec, budget)
    HP = product(H.elements, P_realized, budget)
    delta = Fraction(len(HP), len(AH))
    if delta <= 0:
        raise ContainmentError("density collapsed to zero")

    prog_pos = [i for i, p in enumerate(pieces) if p.kind == "progression"]
    sparse_pos = [i for i, p in enumerate(pieces) if p.kind == "sparse"]
    xi = tuple(prog_pos + sparse_pos)
    radius_H = containment_radius(H.elements, A, budget)
    if parent.is_finite():
        radius_P = containment_radius(P_realized, A, budget)
        radius_note = "minimal"
    else:
        # Minimal exponents on infinite backends can hide behind balls of
        # millions of elements; report the certified word-length bound.
        radius_P = word_radius_bound(P_spec, A, budget)
        radius_note = "word-length bound"
    logs.append(
        f"final: |H|={H.order()} pieces={len(pieces)} rank={P_spec.rank} "
        f"delta={delta} radius_P={radius_P} ({radius_note})"
    )
    return Decomposition(
        H, tuple(pieces), xi, P_spec, P_realized, step, len(A), cert.K_upper,
        radius_H, radius_P, P_spec.rank, delta, tuple(logs),
    )


# --------------------------------------------------------------------------
# Covers derived from a decomposition


@dataclass(frozen=True)
class RuzsaBranchReport:
    """A ⊆ X·H·P·P⁻¹ with X lifted from the quotient by H."""

    X: GSet
    ratio_bound: int
    rank: int


@dataclass(frozen=True)
class ChangBranchReport:
    """A ⊆ (realized progression product)·H via a Chang tower over π(P)."""

    t: int
    stage_sizes: tuple[int, ...]
    rank: int


def corollary_covers(
    dec: Decomposition,
    cert: ApproxCertificate,
    which: str,
    budget: int | None = None,
):
    """Convert a decomposition into one of the two global cover formats.

    Both check their cover with the Ruzsa witness scan of
    `verify_translate_cover`, on X·H for the cover set: X·H·P·P⁻¹ is
    (X·H)·P·P⁻¹.
    """
    budget = resolve_budget(budget)
    A = cert.aset
    parent = A.parent
    P = dec.P_realized
    q = QuotientView(parent, dec.H)
    Abar = quotient_project(q, A)

    if which == "ruzsa":
        rc = ruzsa_cover(Abar, quotient_project(q, P), budget)
        lift: dict = {}
        for c in A.sorted_members():  # each x lifts to its least preimage in A
            lift.setdefault(q.reduce(c), c)
        X = GSet(parent, [lift[x] for x in rc.X.sorted_members()], _reduced=True)
        XH = product(X, dec.H.elements, budget)
        verify_translate_cover(A, XH, P, budget, "X·H·P·P⁻¹ verification")
        rank = 2 * dec.rank_final
        return RuzsaBranchReport(X, rc.ratio_bound, rank)

    if which == "chang":
        cert_q = certify(Abar, quotient_project(q, cert.witness), budget)
        Bbar = quotient_project(q, P)
        # P sits in A^radius_P by the decomposition's certified exponent, and
        # projection preserves the containment, so the power precondition is
        # already established.
        m = max(1, dec.radius_P)
        cc = chang_cover(cert_q, Bbar, m, budget=budget, assume_in_power=True)
        stage_lifts = [
            GSet(parent, S.sorted_members(), _reduced=True) for S in cc.stages
        ]
        # The tower certifies A ⊆ S_t·T·T⁻¹·H with T = S_{t-1}···S_1·B; every
        # witness product rearranges into the ordered form
        # Q_t ··· Q_1 · P · P⁻¹ · Q_1 ··· Q_{t-1} · H where Q_i realizes the
        # stage elements as a bounds-1 progression factor, so verifying the
        # tower in the base group verifies the arranged cover exactly.
        T = P
        for S in stage_lifts[:-1]:
            T = product(S, T, budget)
        SH = product(stage_lifts[-1], dec.H.elements, budget)
        verify_translate_cover(A, SH, T, budget, "(realized P)·H verification")
        rank = 2 * dec.rank_final
        rank += sum(len(S) for S in cc.stages)
        return ChangBranchReport(cc.t, tuple(len(S) for S in cc.stages), rank)

    raise ValueError(f"unknown cover branch {which!r}")
