"""Constructive covering lemmas with exact postcondition checks.

Both covers follow the same greedy core: scan candidates in canonical order
and keep those whose translates stay pairwise disjoint.  Maximality of the
kept family converts directly into a covering statement, which is then
re-verified element by element by a metered witness scan rather than trusted.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .config import resolve_budget
from .errors import BudgetExceeded, CertificateError, ParentMismatch
from .approx import ApproxCertificate
from .gset import GSet, power, product


class Meter:
    """Budget accounting for streaming scans that never materialise a set."""

    __slots__ = ("op", "budget", "used")

    def __init__(self, op: str, budget: int) -> None:
        self.op = op
        self.budget = budget
        self.used = 0

    def spend(self, n: int) -> None:
        self.used += n
        if self.used > self.budget:
            raise BudgetExceeded(self.op, self.used, self.budget)


def meets_translated(parent, t: tuple, S: frozenset, T: frozenset, meter: Meter) -> bool:
    """Exact test t·S ∩ T ≠ ∅ by a scan of S with early exit, charged to `meter`."""
    mul = parent.mul
    spent = 0
    for s in S:
        spent += 1
        if mul(t, s) in T:
            meter.spend(spent)
            return True
    meter.spend(spent)
    return False


def verify_translate_cover(A: GSet, X: GSet, B: GSet, budget: int, op: str) -> None:
    """Exact check A ⊆ X·B·B^{-1}; raises CertificateError when it fails.

    a ∈ X·B·B^{-1} ⇔ a·B meets X·B, decided by scans of B with early exit.
    Each x is probed as (x^{-1}a)·B ∩ B ≠ ∅ until the probes have scanned
    more elements than X·B has pairs; then X·B is built under the budget and
    each later a is one scan, so at most (2|X| + |A|)·|B| elements are
    scanned.  Past the budget the scans raise BudgetExceeded(op).
    """
    parent = A.parent
    mul, inv = parent.mul, parent.inv
    members = B.members
    meter = Meter(op, budget)
    x_order = X.sorted_members()
    XB = None
    for a in A.sorted_members():
        if XB is None and meter.used > len(X) * len(B):
            XB = product(X, B, budget).members
        if XB is None:
            # A kept element covers itself, so try it first when present.
            cands = itertools.chain((a,), (x for x in x_order if x != a)) if a in X.members else x_order
            hit = any(meets_translated(parent, mul(inv(x), a), members, members, meter) for x in cands)
        else:
            hit = meets_translated(parent, a, members, XB, meter)
        if not hit:
            raise CertificateError("cover failed exact verification")


def _disjoint_translates(A: GSet, B: GSet, budget: int) -> list[tuple]:
    """Greedy maximal subset of A whose left-translates of B are pairwise disjoint.

    The scan computes a·B for every a in A, so |A|·|B| past the budget
    raises BudgetExceeded before it starts.  `chang_cover`'s stages read only
    the kept list; `ruzsa_cover` runs the same scan and also counts A·B.
    """
    pairs = len(A) * len(B)
    if pairs > budget:
        raise BudgetExceeded("disjoint_translates", pairs, budget)
    left_row = A.parent.left_row
    kept = []
    occupied: set = set()
    for a in A.sorted_members():
        aB = left_row(a, B.members)
        if any(w in occupied for w in aB):
            continue
        kept.append(a)
        occupied.update(aB)
    return kept


@dataclass(frozen=True)
class RuzsaCover:
    """X ⊆ A with pairwise disjoint translates of B and A ⊆ X B B^{-1}."""

    X: GSet
    ratio_bound: int
    product_size: int


def ruzsa_cover(A: GSet, B: GSet, budget: int | None = None) -> RuzsaCover:
    """Greedy disjoint-translate cover: A inside X*B*B^{-1} with |X| <= ceil(|AB|/|B|).

    |A·B| comes from the scan: the kept translates fill `occupied`, and
    `rest` holds every other element met, none occupied, so the scan holds
    A·B once.  `product`'s budget check stands: |A|·|B| pairs before the
    scan, which bounds |A·B|.
    """
    budget = resolve_budget(budget)
    if A.parent != B.parent:
        raise ParentMismatch("cover needs a common parent")
    if len(A) == 0 or len(B) == 0:
        raise ValueError("cover of/by the empty set")
    pairs = len(A) * len(B)
    if pairs > budget:
        raise BudgetExceeded("product", pairs, budget)
    left_row = A.parent.left_row
    kept, occupied, rest = [], set(), set()
    for a in A.sorted_members():
        aB = left_row(a, B.members)
        if any(w in occupied for w in aB):
            rest.update(w for w in aB if w not in occupied)
        else:
            kept.append(a)
            occupied.update(aB)
            rest.difference_update(aB)
    ab_size = len(occupied) + len(rest)
    del occupied, rest  # freed before the witness scan may build X·B
    X = GSet(A.parent, kept, _reduced=True)
    ratio_bound = -(-ab_size // len(B))
    if len(X) > ratio_bound:
        raise CertificateError("disjoint family exceeds |AB|/|B|; scan is broken")
    verify_translate_cover(A, X, B, budget, "ruzsa cover verification")
    return RuzsaCover(X, ratio_bound, ab_size)


@dataclass(frozen=True)
class ChangCover:
    """Iterated-hull cover: stages S_1..S_t and the sizes of their hulls.

    Non-terminal stages are truncated to exactly 2K disjoint translates so
    each hull is exactly 2K times larger, forcing termination in
    logarithmically many stages; the terminal stage is a maximal family and
    certifies A ⊆ S_t T_t T_t^{-1}.
    """

    stages: tuple[GSet, ...]
    hull_sizes: tuple[int, ...]
    t_bound: int

    @property
    def t(self) -> int:
        return len(self.stages)

    @property
    def stage_sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.stages)


def chang_t_bound(C: Fraction, m: int, K: int, c0: float = 8.0) -> int:
    """Stage-count guarantee ceil(c0 * (log C + m log K + 1)), natural logs."""
    val = c0 * (math.log(C) + m * math.log(K) + 1.0)
    return max(1, math.ceil(val))


def chang_cover(
    cert: ApproxCertificate,
    B: GSet,
    m: int,
    c0: float = 8.0,
    budget: int | None = None,
    assume_in_power: bool = False,
) -> ChangCover:
    """Cover A by a bounded tower of disjoint-translate hulls over B ⊆ A^m.

    ``assume_in_power`` skips the enumeration check of B ⊆ A^m; pass it only
    when the containment is already certified by construction (for example a
    progression whose generators carry measured word-length exponents), since
    enumerating A^m may be far beyond any budget while the certificate is
    exact.
    """
    budget = resolve_budget(budget)
    A = cert.aset
    if A.parent != B.parent:
        raise ParentMismatch("cover needs a common parent")
    if len(B) == 0:
        raise ValueError("cover by the empty set")
    if not assume_in_power and not B <= power(A, m, budget):
        raise CertificateError("B is not inside the declared power of A")
    K = cert.K_upper
    t_bound = chang_t_bound(Fraction(len(A), len(B)), m, K, c0)
    cap = 2 * K
    stages: list[GSet] = []
    hull_sizes: list[int] = []
    T = B
    while True:
        hull_sizes.append(len(T))
        kept = _disjoint_translates(A, T, budget)
        if len(kept) <= cap:
            S = GSet(A.parent, kept, _reduced=True)
            stages.append(S)
            break
        S = GSet(A.parent, kept[:cap], _reduced=True)
        stages.append(S)
        T = product(S, T, budget)
        if len(T) != cap * hull_sizes[-1]:
            raise CertificateError("hull growth lost disjointness; scan is broken")
    if len(stages) > t_bound:
        raise CertificateError(
            f"stage count {len(stages)} exceeded its guarantee ({t_bound}); this indicates a bug"
        )
    verify_translate_cover(A, stages[-1], T, budget, "chang cover verification")
    return ChangCover(tuple(stages), tuple(hull_sizes), t_bound)
