"""Exact finite-set arithmetic over a group backend.

Sets are immutable, keyed by canonical coordinates, and every operation is
exact: budgets abort a computation rather than truncate it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .config import resolve_budget
from .errors import BudgetExceeded, ContainmentError, ParentMismatch
from .groups import Element


class GSet:
    """A finite subset of a group, stored as canonical coordinate tuples."""

    # `_walk` holds the stored layers of `powers` in a finite parent, and
    # `_group` is set by a `SubgroupHandle` whose elements these are.
    __slots__ = ("parent", "members", "_sorted", "_symmetric", "_walk", "_group")

    def __init__(self, parent, members: Iterable[tuple], *, _reduced: bool = False):
        if _reduced:
            ms = frozenset(members)
        else:
            ms = frozenset(parent.reduce(c) for c in members)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", ms)
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_symmetric", None)
        object.__setattr__(self, "_walk", None)
        object.__setattr__(self, "_group", False)

    def __setattr__(self, *a):
        raise AttributeError("GSet is immutable")

    @classmethod
    def identity_set(cls, parent) -> "GSet":
        return cls(parent, [parent.identity_coords()], _reduced=True)

    def sorted_members(self) -> tuple[tuple, ...]:
        s = object.__getattribute__(self, "_sorted")
        if s is None:
            s = tuple(sorted(self.members))
            object.__setattr__(self, "_sorted", s)
        return s

    def elements(self) -> Iterator[Element]:
        for c in self.sorted_members():
            yield Element(self.parent, c)

    def is_symmetric(self) -> bool:
        s = object.__getattribute__(self, "_symmetric")
        if s is None:
            inv = self.parent.inv
            s = all(inv(c) in self.members for c in self.members)
            object.__setattr__(self, "_symmetric", s)
        return s

    def contains_identity(self) -> bool:
        return self.parent.identity_coords() in self.members

    def __len__(self):
        return len(self.members)

    def __contains__(self, item):
        coords = item.coords if isinstance(item, Element) else tuple(item)
        return coords in self.members

    def __le__(self, other: "GSet"):
        self._check(other)
        return self.members <= other.members

    def __eq__(self, other):
        return (
            isinstance(other, GSet)
            and self.parent == other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.parent, self.members))

    def _check(self, other: "GSet"):
        if self.parent != other.parent:
            raise ParentMismatch("sets live in different parents")

    def intersection(self, other: "GSet") -> "GSet":
        self._check(other)
        return GSet(self.parent, self.members & other.members, _reduced=True)

    def filter(self, pred) -> "GSet":
        return GSet(self.parent, (c for c in self.members if pred(c)), _reduced=True)

    def __repr__(self):
        return f"GSet(|{len(self.members)}| over {self.parent!r})"


def product(A: GSet, B: GSet, budget: int | None = None) -> GSet:
    """Exact product set {a*b}; the budget checks |A|·|B|, which bounds |A·B|.

    {1}·X = X·{1} = X.  With a group B (a `SubgroupHandle`'s elements) A·B is
    the union of cosets a·B: an a already in it adds nothing, an a ∈ B adds
    B.  With a group A, the cosets A·b likewise.
    """
    A._check(B)
    budget = resolve_budget(budget)
    pairs = len(A) * len(B)
    if pairs > budget:
        raise BudgetExceeded("product", pairs, budget)
    ident = A.parent.identity_coords()
    if len(A) == 1 and ident in A.members:
        return B
    if len(B) == 1 and ident in B.members:
        return A
    out = set()
    if B._group and not (A._group and len(B) < len(A)):
        left_row, hs = A.parent.left_row, B.members
        for a in A.members:
            if a not in out:
                out.update(hs if a in hs else left_row(a, hs))
    elif A._group:
        right_row, hs = A.parent.right_row, A.members
        for b in B.members:
            if b not in out:
                out.update(hs if b in hs else right_row(hs, b))
    elif len(A) <= len(B):
        left_row, bs = A.parent.left_row, B.members
        for a in A.members:
            out.update(left_row(a, bs))
    else:
        right_row, as_ = A.parent.right_row, A.members
        for b in B.members:
            out.update(right_row(as_, b))
    return GSet(A.parent, out, _reduced=True)


def inverse_set(A: GSet) -> GSet:
    inv = A.parent.inv
    return GSet(A.parent, (inv(c) for c in A.members), _reduced=True)


def symmetrize(A: GSet) -> GSet:
    """A ∪ A^{-1} ∪ {1}; of the empty set, just {1}."""
    inv = A.parent.inv
    out = set(A.members)
    out.update(inv(c) for c in A.members)
    out.add(A.parent.identity_coords())
    return GSet(A.parent, out, _reduced=True)


def powers(A: GSet, budget: int | None = None) -> Iterator[GSet]:
    """A, A², A³, ... computed lazily; the caller decides where to stop.

    With 1 ∈ A the powers are nested, so A^{k+1} = A^k ∪ (A^k∖A^{k−1})·A and
    only the newest layer is multiplied by A.  The budget guards the pairs
    enumerated and the size of each power.  Without 1 the step is the plain
    product A^k·A.  Once A^{k+1} = A^k every later power is that set too.

    In a finite G with fewer elements outside A^k than in its newest layer
    F, the step pulls: it adds each g ∉ A^k of `iter_coords()` whose g·A⁻¹
    meets F, i.e. g ∈ F·A, from fewer pairs; |G| < 2|A^k| bounds that walk.

    In a finite parent the walk is shared: A keeps [A², A³, ...] and a later
    walk replays those layers before it extends them.  Each step checks the
    pairs it costs (|A^k∖A^{k−1}|·|A| with 1 ∈ A, |A^k|·|A| without) and the
    size of the power it yields, whether replayed or built, so the caller's
    budget decides every outcome exactly as a rebuild would.  In an infinite
    parent nothing is kept: the powers need not be bounded.
    """
    budget = resolve_budget(budget)
    yield A
    keep = A.parent.is_finite()
    if keep and A._walk is None:
        object.__setattr__(A, "_walk", [])
    walk = A._walk if keep else []
    unit = A.contains_identity()
    left_row = A.parent.left_row
    order, inv_A = A.parent.order() if keep else None, None
    prev, cur = frozenset((A.parent.identity_coords(),)), A
    k = 0
    while True:
        pairs = ((len(cur) - len(prev)) if unit else len(cur)) * len(A)
        if pairs > budget:
            raise BudgetExceeded("product", pairs, budget)
        if k < len(walk):
            nxt = walk[k]
        else:
            if unit:
                out, layer = set(cur.members), cur.members - prev
                if keep and order - len(cur) < len(layer):  # pull
                    inv_A = inv_A or [A.parent.inv(a) for a in A.members]
                    out.update(
                        g for g in A.parent.iter_coords()
                        if g not in cur.members and not layer.isdisjoint(left_row(g, inv_A))
                    )
                else:
                    for f in layer:
                        out.update(left_row(f, A.members))
                nxt = GSet(A.parent, out, _reduced=True)
            else:
                nxt = product(cur, A, budget)
            if keep:
                walk.append(nxt)
        if len(nxt) > budget:
            raise BudgetExceeded("product", len(nxt), budget)
        prev, cur = cur.members, nxt
        k += 1
        yield nxt


def _least_powers(
    A: GSet, targets: list[frozenset], budget: int, op: str, escape: str
) -> list[int]:
    """Least k >= 1 with T ⊆ A^k for each target T, from one walk A, A², …

    Each power is checked against every open target before the next one is
    built.  A power equal to the one before means the walk has stabilised at
    the subgroup A generates, so a target still open raises
    ContainmentError(escape).  A walk that has not stabilised by A^64 stops
    there with BudgetExceeded(op): on an infinite group a target outside ⟨A⟩
    never stabilises it, and without 1 ∈ A the powers can cycle.
    """
    found = [0] * len(targets)
    walk = powers(A, budget)
    cur = next(walk)
    k = 1
    while True:
        for i, T in enumerate(targets):
            if not found[i] and T <= cur.members:
                found[i] = k
        if all(found):
            return found
        if k == 64:
            raise BudgetExceeded(op, k + 1, k)
        nxt = next(walk)
        if nxt.members == cur.members:
            raise ContainmentError(escape)
        cur, k = nxt, k + 1


def _stable_powers(A: GSet, n: int, budget: int | None) -> Iterator[GSet]:
    """A^1, ..., A^k from one walk, stopping at k = n or before the first
    power equal to the one before it (the walk has stabilised)."""
    prev = None
    for k, cur in enumerate(powers(A, budget), start=1):
        if prev is not None and cur.members == prev.members:
            return
        yield cur
        if k == n:
            return
        prev = cur


def power_chain(A: GSet, n: int, budget: int | None = None) -> list[GSet]:
    """[A^1, ..., A^n].  Detects stabilization (A^{k+1} = A^k) and reuses it."""
    if n < 1:
        raise ValueError("need n >= 1")
    chain = list(_stable_powers(A, n, budget))
    return chain + [chain[-1]] * (n - len(chain))


def power(A: GSet, n: int, budget: int | None = None) -> GSet:
    """A^n for n >= 1; A^0 is the singleton {1}.

    The walk holds only the newest power, not the whole chain.
    """
    if n == 0:
        return GSet.identity_set(A.parent)
    if n < 1:
        raise ValueError("need n >= 1")
    for cur in _stable_powers(A, n, budget):
        pass
    return cur


@dataclass(frozen=True)
class GrowthStats:
    """Power sizes |A^1|..|A^n| with doubling and tripling ratios."""

    sizes: tuple[int, ...]
    doubling: Fraction | None
    tripling: Fraction | None


def growth_stats(A: GSet, n: int, budget: int | None = None) -> GrowthStats:
    """|A^1|, ..., |A^n| from the power walk, keeping only the sizes; the
    elements of all the powers it yields count together against the budget."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not A.contains_identity():
        warnings.warn("growth_stats: 1 is not in A; power sizes need not be monotone")
    budget = resolve_budget(budget)
    sizes, held = [], 0
    for S in _stable_powers(A, n, budget):
        held += len(S)
        if held > budget:
            raise BudgetExceeded("growth_stats", held, budget)
        sizes.append(len(S))
    sizes = tuple(sizes + sizes[-1:] * (n - len(sizes)))
    doubling = Fraction(sizes[1], sizes[0]) if n >= 2 else None
    tripling = Fraction(sizes[2], sizes[0]) if n >= 3 else None
    return GrowthStats(sizes, doubling, tripling)
