"""Subgroups, quotients and nilpotency structure.

Everything here is exact and budget-guarded: spans and closures enumerate,
and operations that cannot terminate (infinite subgroups) surface as
BudgetExceeded rather than looping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import resolve_budget
from .errors import BudgetExceeded, NotNilpotent, ParentMismatch
from .groups import Element, GroupDescriptor, _law_kernels
from .gset import GSet


@dataclass(frozen=True)
class SubgroupHandle:
    """An enumerated subgroup with an optional normality verdict.

    `generators` generate the subgroup as a group, so `check_normal`
    conjugates only them.  Empty means every element, which `gen_elements`
    then lists.

    is_normal is a tri-state: True once conjugation-stability has been
    verified against a generating set of conjugators (which implies
    normality in the group they generate), False after a failed check,
    None = unknown.

    The handle marks `elements` as a group, for `product` to go by cosets.
    """

    parent: object
    elements: GSet
    generators: tuple[Element, ...] = ()
    is_normal: bool | None = None

    def __post_init__(self):
        object.__setattr__(self.elements, "_group", True)

    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __contains__(self, item):
        return item in self.elements

    def gen_elements(self) -> list[Element]:
        if self.generators:
            return list(self.generators)
        return list(self.elements.elements())


def _gen_list(gens) -> list[Element]:
    if isinstance(gens, GSet):
        return list(gens.elements())
    if isinstance(gens, SubgroupHandle):
        return gens.gen_elements()
    return list(gens)


def _adjoin(parent, members: set, gens: list, new, budget: int, op: str) -> None:
    """Grow the subgroup `members` = ⟨gens⟩ in place by each of `new` (Dimino).

    A candidate already in the subgroup costs one lookup.  Otherwise it is
    appended to `gens` and whole right cosets H·r of the subgroup H before
    it are added: H·r·s = H·(r·s), so only coset representatives r are
    multiplied by the generators s.  Closing under right multiplication by
    the generators gives the generated subgroup when that is finite (every
    element has finite order); an infinite one hits the budget.
    """
    mul, right_row = parent.mul, parent.right_row
    for s in new:
        if s in members:
            continue
        gens.append(s)
        old = list(members)
        reps = [parent.identity_coords()]
        for r in reps:
            for g in gens:
                w = mul(r, g)
                if w not in members:
                    members.update(right_row(old, w))
                    if len(members) > budget:
                        raise BudgetExceeded(op, len(members), budget)
                    reps.append(w)


def _closure_start(gen_elems, what: str):
    """Common parent of the generators, and their coordinates with inverses."""
    if not gen_elems:
        raise ValueError(f"{what} needs at least one generator (or a parent-tagged GSet)")
    parent = gen_elems[0].parent
    for g in gen_elems:
        if g.parent != parent:
            raise ParentMismatch(f"{what}: mixed parents")
    inv = parent.inv
    return parent, sorted({g.coords for g in gen_elems} | {inv(g.coords) for g in gen_elems})


def _conjugators(parent, coords) -> list[tuple]:
    """One element of each pair {g, g⁻¹} among coords, without 1, sorted.

    For a finite subgroup H, gHg⁻¹ ⊆ H forces gHg⁻¹ = H (both have |H|
    elements), hence g⁻¹Hg = H: conjugating by g checks g⁻¹ too.
    """
    inv, ident = parent.inv, parent.identity_coords()
    kept: set[tuple] = set()
    for g in sorted(coords):
        if g != ident and inv(g) not in kept:
            kept.add(g)
    return sorted(kept)


def span(gens, budget: int | None = None) -> SubgroupHandle:
    """Smallest subgroup containing gens, grown coset by coset from {1}."""
    budget = resolve_budget(budget)
    gen_elems = _gen_list(gens)
    parent, step_gens = _closure_start(gen_elems, "span")
    members = {parent.identity_coords()}
    _adjoin(parent, members, [], step_gens, budget, "span")
    return SubgroupHandle(
        parent,
        GSet(parent, members, _reduced=True),
        generators=tuple(sorted(gen_elems)),
    )


def normal_closure(H, conj_gens, budget: int | None = None) -> SubgroupHandle:
    """Smallest subgroup containing H that is conjugation-stable under conj_gens.

    Stability under a generating set implies normality in the generated group.
    Only the generators N was grown from are conjugated, and only by one g of
    each pair {g, g⁻¹} in conj: if g·h·g⁻¹ ∈ N for every such h, then
    gNg⁻¹ ⊆ N, and equality holds because N is finite, so g⁻¹Ng = N as well.
    A conjugate outside N is adjoined to it and conjugated in turn.  The
    handle keeps the seeds and conjugates that grew N, which generate it.
    """
    budget = resolve_budget(budget)
    conj = _gen_list(conj_gens)
    base = _gen_list(H)
    if not base:
        raise ValueError("normal_closure of nothing")
    pool = [g if isinstance(g, Element) else Element(base[0].parent, g) for g in base]
    parent, start = _closure_start(pool, "normal_closure")
    mul, inv = parent.mul, parent.inv
    conj_pairs = [(g, inv(g)) for g in _conjugators(parent, {g.coords for g in conj})]
    members = {parent.identity_coords()}
    gens: list[tuple] = []
    _adjoin(parent, members, gens, start, budget, "normal_closure")
    for h in gens:  # conjugates adjoined below extend gens and are visited too
        for g, gi in conj_pairs:
            w = mul(mul(g, h), gi)
            if w not in members:
                _adjoin(parent, members, gens, (w,), budget, "normal_closure")
    return SubgroupHandle(
        parent,
        GSet(parent, members, _reduced=True),
        generators=tuple(sorted(Element(parent, g) for g in gens)),
        is_normal=True,
    )


def derived_subgroup(G_gens, budget: int | None = None) -> SubgroupHandle:
    """[G, G] for G = <gens>: normal closure of the generator commutators."""
    budget = resolve_budget(budget)
    gens = _gen_list(G_gens)
    if not gens:
        raise ValueError("derived_subgroup of nothing")
    parent = gens[0].parent
    comms = _commutator_levels(parent, gens, 2, budget, "derived_subgroup")[1]
    if not comms:
        return SubgroupHandle(parent, GSet.identity_set(parent), is_normal=True)
    return normal_closure([Element(parent, c) for c in comms], gens, budget)


def check_normal(H: SubgroupHandle, conj_gens, budget: int | None = None) -> SubgroupHandle:
    """Return a copy of H with its normality verdict against conj_gens filled in.

    For a set S that generates H as a group, gHg⁻¹ ⊆ H exactly when
    gSg⁻¹ ⊆ H: conjugation is an automorphism and H is closed.  S is H's
    generators, or all of H when it kept none.  H is finite, so conjugating
    by one g of each pair {g, g⁻¹} decides both.
    """
    parent = H.parent
    members = H.elements.members
    left_row, right_row, inv = parent.left_row, parent.right_row, parent.inv
    S = [g.coords for g in H.generators] if H.generators else members
    conj = _conjugators(parent, {g.coords for g in _gen_list(conj_gens)})
    # g·S·g⁻¹ as two rows, (g·S)·g⁻¹.
    ok = all(
        members.issuperset(right_row(left_row(g, S), inv(g)))
        for g in conj
    )
    return replace(H, is_normal=ok)


def _commutator_levels(parent, gens, depth: int, budget: int, op: str) -> list[set]:
    """Deduplicated left-normed commutator levels L_1, ..., L_depth.

    The one commutator builder: the step, [G, G] and the step-reduction
    commutators all read their levels from here.

    L_1 holds the generators other than 1 and L_{t+1} = {[c, g] ≠ 1 : c ∈ L_t,
    g ∈ L_1} with [c, g] = c⁻¹g⁻¹cg.  Each inverse is computed once.  L_2
    takes [c, g] once per unordered pair and adds the inverses, since
    [g, c] = [c, g]⁻¹ and [c, c] = 1.  A level larger than the budget raises
    BudgetExceeded(op).
    """
    ident = parent.identity_coords()
    mul, inv, left_row = parent.mul, parent.inv, parent.left_row
    base = {g.coords for g in gens} - {ident}
    gs = list(base)
    gis = [inv(g) for g in gs]
    levels = [base]
    for t in range(depth - 1):
        nxt = set()
        for i, c in enumerate(levels[-1] if t else gs):
            # [c, g] = (c⁻¹·g⁻¹)·(c·g): two rows, then one product per g.
            k = 0 if t else i + 1  # L_2: only the g after c in gs
            nxt.update(map(mul, left_row(inv(c), gis[k:]), left_row(c, gs[k:])))
        if not t:
            nxt.update([inv(w) for w in nxt])
        nxt.discard(ident)
        if len(nxt) > budget:
            raise BudgetExceeded(op, len(nxt), budget)
        levels.append(nxt)
    return levels


def step_of_generated(gens, budget: int | None = None) -> int:
    """Nilpotency step of <gens> computed from generators alone.

    Builds deduplicated left-normed commutator levels L_1 = gens,
    L_{t+1} = {[c, g]}; inside an ambient of structural step S, gamma_t is
    generated by L_t once gamma_{t+1} vanishes, so the step is the largest t
    with a nonvanishing level.  Works in infinite backends where enumeration
    is impossible.
    """
    budget = resolve_budget(budget)
    gen_elems = _gen_list(gens)
    if not gen_elems:
        return 0
    parent = gen_elems[0].parent
    levels = _commutator_levels(
        parent, gen_elems, parent.structural_step + 1, budget, "step_of_generated"
    )
    if levels[-1]:
        raise NotNilpotent("nonvanishing commutators beyond the structural step")
    step = 0
    for t, lv in enumerate(levels, start=1):
        if lv:
            step = t
    return step


def _coordinate_kernel(base, kernel: SubgroupHandle) -> tuple[int, ...] | None:
    """Z, sorted, when the kernel is every tuple of the base supported on Z
    and Z is closed: no coordinate outside Z has a pair that reads Z in the
    base's law table.  Else None.  Z is where some member is not 0, so the
    kernel is all of Z's tuples iff |K| = ∏_{k∈Z} m_k, which a finite kernel
    meets only when Z's moduli are nonzero; the trivial kernel has Z = ∅ in
    any base."""
    members = kernel.elements.members
    Z = {k for c in members for k, x in enumerate(c) if x}
    closed = not any(
        k not in Z and (s in Z or t in Z) for k, pairs in base.law_table for s, t in pairs
    )
    moduli = base.coord_moduli
    return tuple(sorted(Z)) if closed and len(members) == math.prod(moduli[k] for k in Z) else None


class QuotientView(GroupDescriptor):
    """G/K presented on canonical coset representatives.

    Wraps a base descriptor and a finite kernel subgroup; every coset is
    represented by its least canonical coordinate tuple.  Valid on elements
    of any subgroup in which the kernel is normal (tracked via the kernel's
    normality verdict).

    A coordinate quotient (`_coordinate_kernel`) is its base's table with
    modulus 1 on Z, in any base whose Z moduli are finite: `coord_moduli`
    is the base's with Z's entries 1, the least members are the tuples with
    Z's entries 0, and `_kernels` is that compiled law (`_law_kernels`).
    With any other kernel, `_kernels` is None and arithmetic runs in the
    base, then reduces through a cache of coset representatives.
    """

    def __init__(self, base, kernel: SubgroupHandle):
        if kernel.parent != base:
            raise ParentMismatch("kernel must live in the base group")
        if isinstance(base, QuotientView):
            raise ValueError("views do not nest; quotient the base by the preimage instead")
        self.base = base
        self.kernel = kernel
        self._rep_cache: dict[tuple, tuple] = {}
        Z = _coordinate_kernel(base, kernel)
        if Z is None:
            self._kernels = None
            self._kernel_sorted = kernel.elements.sorted_members()
        else:
            self.coord_moduli = tuple(1 if k in Z else m for k, m in enumerate(base.coord_moduli))
            self._kernels = _law_kernels(self.coord_moduli, base.law_table)

    # --- descriptor interface -------------------------------------------
    @property
    def arity(self):
        return self.base.arity

    @property
    def structural_step(self):
        return self.base.structural_step

    def reduce(self, coords):
        if self._kernels:  # modulus 1 sets Z's entries to 0
            return super().reduce(coords)
        # Cache keys are canonical base coordinates, so a hit on the raw input
        # is exact; base arithmetic already returns canonical tuples, which
        # keeps base.reduce off the hot path of mul and inv.  A miss computes
        # the whole coset c·K and files its least member under every member:
        # c'·K = c·K for each c' in it.
        cache = self._rep_cache
        if type(coords) is tuple:
            r = cache.get(coords)
            if r is not None:
                return r
        c = self.base.reduce(tuple(coords))
        r = cache.get(c)
        if r is None:
            coset = self.base.left_row(c, self._kernel_sorted)
            r = min(coset)
            cache.update(dict.fromkeys(coset, r))
        return r

    def mul(self, a, b):
        law = self._kernels
        return law[0](a, b) if law else self.reduce(self.base.mul(a, b))

    # A base row is canonical, so each entry is one cache lookup; only a
    # miss (a coset not met before) goes through `reduce`.  Representatives
    # are nonempty tuples, hence true.
    def left_row(self, a, bs):
        if self._kernels:
            return self._kernels[1](a, bs)
        get, reduce = self._rep_cache.get, self.reduce
        return [get(c) or reduce(c) for c in self.base.left_row(a, bs)]

    def right_row(self, as_, b):
        if self._kernels:
            return self._kernels[2](as_, b)
        get, reduce = self._rep_cache.get, self.reduce
        return [get(c) or reduce(c) for c in self.base.right_row(as_, b)]

    def inv(self, a):
        law = self._kernels
        return law[3](a) if law else self.reduce(self.base.inv(a))

    def identity_coords(self):
        return self.base.identity_coords()

    def is_abelian(self):
        if self.base.is_abelian():
            return True
        levels = _commutator_levels(
            self, self.generators(), 2, resolve_budget(None), "is_abelian"
        )
        return not levels[1]

    def is_finite(self):
        return self.base.is_finite()

    def order(self):
        o = self.base.order()
        if o is None:
            return None
        return o // len(self.kernel.elements)

    def iter_coords(self):
        if self._kernels:  # the tuples with Z's entries 0, in the same order
            yield from super().iter_coords()
            return
        seen = set()
        for c in self.base.iter_coords():
            r = self.reduce(c)
            if r not in seen:
                seen.add(r)
                yield r

    def generator_coords(self):
        out = []
        seen = set()
        for c in self.base.generator_coords():
            r = self.reduce(c)
            if r not in seen:
                seen.add(r)
                out.append(r)
        return out

    # --- equality ---------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, QuotientView)
            and self.base == other.base
            and self.kernel.elements.members == other.kernel.elements.members
        )

    def __hash__(self):
        return hash((self.base, self.kernel.elements.members))

    def __repr__(self):
        return f"QuotientView({self.base!r} / |{len(self.kernel.elements)}|)"


def quotient_project(q: QuotientView, A: GSet) -> GSet:
    """Image of A in the quotient, as canonical representatives tagged with q.
    By the trivial kernel the image is A's own members, shared."""
    if A.parent != q.base:
        raise ParentMismatch("set does not live in the base of the quotient")
    members = A.members if q.kernel.is_trivial() else (q.reduce(c) for c in A.members)
    return GSet(q, members, _reduced=True)

