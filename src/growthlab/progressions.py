"""Progressions in nilpotent groups: ordered, word-bounded, and hull variants.

Three nested notions over generators x_1..x_r with bounds L_1..L_r:

* ordered:   products x_1^{n_1} ... x_r^{n_r}, |n_i| <= L_i, fixed order;
* word:      arbitrary-order words where x_i^{+-1} together appear <= L_i times;
* hull:      ordered progression over the basic commutators of weight <= s,
             commutator b_j bounded by M_j = prod_i L_i^{chi_j(i)} where chi_j
             counts occurrences of x_i in b_j.

The word progression sits between the other two, and the hull is covered by a
bounded power of the ordered progression; `verify_chain` checks the whole
chain exactly and finds the least such power.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .config import resolve_budget
from .errors import BudgetExceeded, ContainmentError, ParentMismatch
from .groups import Element, commutator
from .gset import GSet, _least_powers, product


@dataclass(frozen=True)
class ProgressionSpec:
    """Generators with symmetric exponent bounds."""

    generators: tuple[Element, ...]
    bounds: tuple[int, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.bounds):
            raise ValueError("one bound per generator")
        if any(b < 0 for b in self.bounds):
            raise ValueError("bounds must be nonnegative")
        parents = {g.parent for g in self.generators}
        if len(parents) > 1:
            raise ParentMismatch("progression generators in mixed parents")

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def parent(self):
        if not self.generators:
            raise ValueError("empty progression has no parent")
        return self.generators[0].parent

    def scaled(self, factor: int) -> "ProgressionSpec":
        """Same generators with every bound multiplied by factor."""
        if factor < 0:
            raise ValueError("factor must be nonnegative")
        return ProgressionSpec(self.generators, tuple(b * factor for b in self.bounds))


def _power_interval(g: Element, bound: int, left: int, budget: int) -> GSet:
    """{g^n : |n| <= bound}, built for a product with a set of size `left`.

    The interval only grows, so once `left` times its size passes the
    budget the product after it would fail too; that is raised at once, as
    product's own error.  A power already in the interval means the powers
    repeat: the interval is then all of <g> and the walk stops.
    """
    parent = g.parent
    mul, gc, gi = parent.mul, g.coords, parent.inv(g.coords)
    pos = neg = parent.identity_coords()
    out = {pos}
    for _ in range(bound):
        pos = mul(pos, gc)
        if pos in out:
            break
        out.add(pos)
        neg = mul(neg, gi)
        out.add(neg)
        if left * len(out) > budget:
            raise BudgetExceeded("product", left * len(out), budget)
    return GSet(parent, out, _reduced=True)


def ordered_progression(spec: ProgressionSpec, budget: int | None = None) -> GSet:
    """Products taken in generator order with bounded exponents."""
    budget = resolve_budget(budget)
    if not spec.generators:
        raise ValueError("empty progression spec")
    parent = spec.parent
    acc = GSet.identity_set(parent)
    for g, L in zip(spec.generators, spec.bounds):
        acc = product(acc, _power_interval(g, L, len(acc), budget), budget)
    return acc


def word_progression(spec: ProgressionSpec, budget: int | None = None) -> GSet:
    """All words in the generators where x_i or its inverse appears <= L_i times.

    Breadth-first over (element, usage-vector) states; the usage vector keeps
    collisions at different budgets distinct so nothing reachable is missed.
    """
    budget = resolve_budget(budget)
    if not spec.generators:
        raise ValueError("empty progression spec")
    parent = spec.parent
    mul = parent.mul
    steps = []
    for i, g in enumerate(spec.generators):
        steps.append((i, g.coords))
        steps.append((i, parent.inv(g.coords)))
    ident = parent.identity_coords()
    zero = (0,) * spec.rank
    seen_states = {(ident, zero)}
    members = {ident}
    frontier = [(ident, zero)]
    while frontier:
        nxt = []
        for coords, usage in frontier:
            for i, gc in steps:
                if usage[i] >= spec.bounds[i]:
                    continue
                w = mul(coords, gc)
                u2 = usage[:i] + (usage[i] + 1,) + usage[i + 1:]
                st = (w, u2)
                if st not in seen_states:
                    seen_states.add(st)
                    members.add(w)
                    nxt.append(st)
        if len(seen_states) > budget:
            raise BudgetExceeded("word_progression", len(seen_states), budget)
        frontier = nxt
    return GSet(parent, members, _reduced=True)


# --------------------------------------------------------------------------
# Basic commutators (Hall family) and the hull progression
# --------------------------------------------------------------------------

def term_text(term) -> str:
    """Readable rendering, e.g. [[x2,x1],x1]."""
    if isinstance(term, int):
        return f"x{term + 1}"
    return f"[{term_text(term[0])},{term_text(term[1])}]"


def hall_basis(rank: int, step: int, budget: int | None = None) -> list:
    """Basic commutators of weight <= step over `rank` generators, in canonical order.

    A bracket [u, v] is basic when u and v are basic, u > v, and whenever
    u = [p, q] also q <= v.  Weight-1 terms are the generators themselves.
    Terms are ordered by weight, then by their encoding (generator i is
    (0, i), a bracket is (1, enc u, enc v)); each key is built once, from
    its parts' keys.  The candidate pairs (u, v) of each weight split, at
    least 1, are counted against the budget before they are enumerated.
    """
    if rank < 0 or step < 1:
        raise ValueError("need rank >= 0 and step >= 1")
    budget = resolve_budget(budget)
    # weight -> sorted [(key, term, key of the term's right part)]
    by_weight = {1: [((1, (0, i)), i, None) for i in range(rank)]}
    pairs = 0
    for w in range(2, step + 1):
        fresh = []
        for wu in range(1, w):
            us, vs = by_weight[wu], by_weight[w - wu]
            pairs += max(len(us) * len(vs), 1)
            if pairs > budget:
                raise BudgetExceeded("hall_basis", pairs, budget)
            for ku, u, kq in us:
                for kv, v, _ in vs:
                    if ku > kv and (kq is None or kq <= kv):
                        fresh.append(((w, (1, ku[1], kv[1])), (u, v), kv))
        fresh.sort()
        by_weight[w] = fresh
    return [t for level in by_weight.values() for _, t, _ in level]


def term_occurrences(term) -> Counter:
    """How many times each generator index occurs inside a term."""
    if isinstance(term, int):
        return Counter({term: 1})
    return term_occurrences(term[0]) + term_occurrences(term[1])


def evaluate_term(term, gens: tuple[Element, ...]) -> Element:
    if isinstance(term, int):
        return gens[term]
    return commutator(evaluate_term(term[0], gens), evaluate_term(term[1], gens))


@dataclass(frozen=True)
class HullProgression:
    """The hull's realized set together with the basis that produced it."""

    spec: ProgressionSpec
    step: int
    terms: tuple
    members: GSet


def hull_progression(
    spec: ProgressionSpec,
    step: int | None = None,
    budget: int | None = None,
) -> HullProgression:
    """Ordered progression over the basic commutators with product bounds."""
    budget = resolve_budget(budget)
    if not spec.generators:
        raise ValueError("empty progression spec")
    parent = spec.parent
    if step is None:
        step = parent.structural_step
    terms = hall_basis(spec.rank, step, budget)
    elems = tuple(evaluate_term(t, spec.generators) for t in terms)
    bounds = []
    for t in terms:
        occ = term_occurrences(t)
        m = 1
        for i, k in occ.items():
            m *= spec.bounds[i] ** k
        bounds.append(m)
    inner = ProgressionSpec(elems, tuple(bounds))
    members = ordered_progression(inner, budget)
    return HullProgression(spec, step, tuple(terms), members)


def chain_bound(rank: int, step: int) -> int:
    """Worst-case power of the ordered progression needed to cover the hull."""
    return (96 * step) ** (step * step) * rank ** step


@dataclass(frozen=True)
class ChainCertificate:
    """Exactly verified nesting of the three progressions."""

    spec: ProgressionSpec
    step: int
    ordered_size: int
    word_size: int
    hull_size: int
    kstar: int
    theoretical_bound: int


def containment_exponent(
    target: GSet, spec: ProgressionSpec, budget: int | None = None
) -> int:
    """Least k with target inside the k-th power of the ordered progression."""
    budget = resolve_budget(budget)
    P = ordered_progression(spec, budget)
    if target.parent != P.parent:
        raise ParentMismatch("target lives elsewhere")
    return _least_powers(
        P, [target.members], budget, "containment_exponent",
        "target escapes the subgroup generated by the progression",
    )[0]


def verify_chain(
    spec: ProgressionSpec,
    step: int | None = None,
    budget: int | None = None,
) -> ChainCertificate:
    """Check ordered <= word <= hull <= ordered^k* and report exact sizes."""
    budget = resolve_budget(budget)
    parent = spec.parent
    if step is None:
        step = parent.structural_step
    P_ord = ordered_progression(spec, budget)
    P_word = word_progression(spec, budget)
    hull = hull_progression(spec, step, budget)
    if not P_ord <= P_word:
        raise ContainmentError("ordered progression escapes the word progression")
    if not P_word <= hull.members:
        raise ContainmentError("word progression escapes the hull")
    kstar = containment_exponent(hull.members, spec, budget)
    bound = chain_bound(spec.rank, step)
    if kstar > bound:
        raise ContainmentError("containment power exceeds the theoretical bound")
    return ChainCertificate(
        spec=spec,
        step=step,
        ordered_size=len(P_ord),
        word_size=len(P_word),
        hull_size=len(hull.members),
        kstar=kstar,
        theoretical_bound=bound,
    )
