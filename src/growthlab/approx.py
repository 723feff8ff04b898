"""Approximate-group certificates and the covering toolbox built on them.

A certificate for A is a finite witness set X with A symmetric, 1 in A and
A^2 inside X*A; every constructor here verifies that containment exactly on
enumerated sets, so a certificate in hand is proof, not promise.  `certify`
multiplies X*A out; the greedy and slice constructors prove it element by
element while they choose X, and never build X*A.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .config import resolve_budget
from .errors import BudgetExceeded, CertificateError, NotAbelian, ParentMismatch
from .gset import GSet, inverse_set, power, power_chain, powers, product


@dataclass(frozen=True)
class ApproxCertificate:
    """Verified witness that A is a |X|-approximate group."""

    aset: GSet
    witness: GSet
    square_size: int

    @property
    def K_upper(self) -> int:
        return len(self.witness)

    @property
    def K_lower(self) -> Fraction:
        return Fraction(self.square_size, len(self.aset))

    def __post_init__(self):
        if self.aset.parent != self.witness.parent:
            raise ParentMismatch("witness must live with the set")
        if not self.aset.contains_identity():
            raise CertificateError("set must contain the identity")
        if not self.aset.is_symmetric():
            raise CertificateError("set must be symmetric")
        if len(self.witness) == 0:
            raise CertificateError("witness may not be empty")


def certify(aset: GSet, witness: GSet, budget: int | None = None) -> ApproxCertificate:
    """Build a certificate, verifying A^2 <= X*A exactly.

    The square comes from A's power walk, under product's own guard on the
    |A|² pairs, so the budget outcome is still product's.
    """
    budget = resolve_budget(budget)
    if len(aset) ** 2 > budget:
        raise BudgetExceeded("product", len(aset) ** 2, budget)
    square = power(aset, 2, budget)
    covered = product(witness, aset, budget)
    if not square <= covered:
        missing = len(square.members - covered.members)
        raise CertificateError(f"witness fails to cover the square ({missing} elements exposed)")
    return ApproxCertificate(aset, witness, len(square))


def doubling_constant(A: GSet, budget: int | None = None) -> Fraction:
    """|A^2| / |A| exactly."""
    if len(A) == 0:
        raise ValueError("doubling of the empty set")
    return Fraction(len(power(A, 2, budget)), len(A))


def greedy_cover_certificate(A: GSet, budget: int | None = None) -> ApproxCertificate:
    """Certificate with a greedily minimized witness drawn from A^2 itself.

    Any element of A^2 covers at least itself (1 is in A), so the greedy
    always terminates with X inside A^2.  Each round takes the least x of
    greatest gain |x·A ∩ A² ∩ uncovered|.  Gains only fall, so they sit in a
    lazy heap keyed (−gain, x): a popped entry whose gain has fallen goes
    back with its new gain, and the first that has not is that x.
    """
    budget = resolve_budget(budget)
    if not A.contains_identity():
        raise CertificateError("set must contain the identity")
    if not A.is_symmetric():
        raise CertificateError("set must be symmetric")
    square = power(A, 2, budget)
    if len(square) * len(A) > budget:
        raise BudgetExceeded("greedy_cover_certificate", len(square) * len(A), budget)
    left_row = A.parent.left_row
    masks = {}
    for x in square.sorted_members():
        masks[x] = square.members.intersection(left_row(x, A.members))
    heap = [(-len(mask), x) for x, mask in masks.items()]
    heapq.heapify(heap)
    uncovered = set(square.members)
    chosen = []
    while uncovered:
        stored, x = heapq.heappop(heap)
        gain = len(masks[x] & uncovered)
        if gain < -stored:
            heapq.heappush(heap, (-gain, x))
            continue
        chosen.append(x)
        uncovered -= masks[x]
    X = GSet(A.parent, chosen, _reduced=True)
    return ApproxCertificate(A, X, len(square))


@dataclass(frozen=True)
class GrowthRow:
    power: int
    size: int
    bound: int
    within: bool


def growth_law(cert: ApproxCertificate, max_power: int, budget: int | None = None) -> list[GrowthRow]:
    """Exact |A^m| against K^{m-1}|A| for m up to max_power.

    The powers come from one power walk, which multiplies only the newest
    layer of each power by A (1 ∈ A); the budget guards those pairs and
    each power's size.
    """
    A = cert.aset
    K = cert.K_upper
    rows = []
    for m, cur in enumerate(power_chain(A, max_power, budget), start=1):
        bound = K ** (m - 1) * len(A)
        rows.append(GrowthRow(m, len(cur), bound, len(cur) <= bound))
    return rows


# --------------------------------------------------------------------------
# Slicing covers: powers and intersections by translates of small cores
# --------------------------------------------------------------------------

def _slice_scan(target: GSet, cells, core: GSet, failure: str) -> GSet:
    """Witnesses C, one per cell that meets the uncovered part of `target`.

    The witness c of a cell is its least uncovered element, and it covers each
    w of that hit with c⁻¹w ∈ core, so an empty remainder proves target ⊆
    C·core element by element.  The scan then draws no further cell; an
    element left after the last cell raises CertificateError(failure).
    """
    left_row, inv = target.parent.left_row, target.parent.inv
    remaining = set(target.members)
    witnesses = []
    cells = iter(cells)
    while remaining:
        cell = next(cells, None)
        if cell is None:
            raise CertificateError(failure)
        hit = list(remaining.intersection(cell))
        if hit:
            c = min(hit)
            witnesses.append(c)
            moved = left_row(inv(c), hit)
            remaining.difference_update(w for w, x in zip(hit, moved) if x in core.members)
    return GSet(target.parent, witnesses, _reduced=True)


@dataclass(frozen=True)
class SlicingCover:
    """A^m intersect B^n covered by translates of A^2 intersect B^2."""

    target: GSet
    core: GSet
    translates: GSet
    bound: int

    @property
    def count(self) -> int:
        return len(self.translates)


def slicing_cover(
    certA: ApproxCertificate,
    certB: ApproxCertificate,
    m: int,
    n: int,
    budget: int | None = None,
) -> SlicingCover:
    """Cover A^m ∩ B^n by at most K^{m-1} L^{n-1} translates of A^2 ∩ B^2.

    Every element lies in some u*A with u from X_A^{m-1} and some v*B with v
    from X_B^{n-1}; two elements of the same (u, v) slice differ by an element
    of A^2 ∩ B^2, so one witness per nonempty slice covers everything, and
    the scan that picks the witnesses is the proof.
    """
    budget = resolve_budget(budget)
    if m < 1 or n < 1:
        raise ValueError("powers must be at least 1")
    A, B = certA.aset, certB.aset
    if A.parent != B.parent:
        raise ParentMismatch("slicing needs a common parent")
    target = power(A, m, budget).intersection(power(B, n, budget))
    core = power(A, 2, budget).intersection(power(B, 2, budget))
    XA = power(certA.witness, m - 1, budget)
    XB = power(certB.witness, n - 1, budget)
    bound = certA.K_upper ** (m - 1) * certB.K_upper ** (n - 1)
    left_row = A.parent.left_row
    rows_B = [frozenset(left_row(v, B.members)) for v in XB.sorted_members()]
    cells = (uA.intersection(vB)
             for uA in (frozenset(left_row(u, A.members)) for u in XA.sorted_members())
             for vB in rows_B)
    translates = _slice_scan(target, cells, core, "slicing cover failed exact verification")
    if len(translates) > bound:
        raise CertificateError("slicing cover exceeded its bound")
    return SlicingCover(target, core, translates, bound)


def predicate_slice_certificate(
    cert: ApproxCertificate,
    member,
    budget: int | None = None,
) -> ApproxCertificate:
    """Certificate for A^2 ∩ H with witness count at most K^3.

    H is given by a membership predicate on coordinates and must be a
    subgroup (closure is the caller's obligation).  The square of the slice
    sits in A^4 ∩ H; slicing A^4 by translates u*A with u from X^3 and taking
    one witness per nonempty slice lands the witnesses inside H (they are
    slice members) with displacement in A^2 ∩ H.  The certificate is verified
    exactly either way: a predicate that is not a subgroup can only fail
    loudly, at the check that the slice's square stays inside A^4 ∩ H.

    With S = A² ∩ H and T = A⁴ ∩ H, the scan removes an element w of T only
    when c⁻¹w ∈ S for the witness c it chose, so an empty remainder proves
    T ⊆ C·S element by element.  Then S² ⊆ T, checked on S² from S's power
    walk under `certify`'s guard on the |S|² pairs, gives S² ⊆ C·S without
    building C·S.  A², A⁴ and X³ come from the power walks of A and X, so
    in a finite parent the slices of one certificate replay them.  A full
    slice S = A² has S² = A⁴, which A's walk holds already; there S² ⊆ T
    proves that every member of A⁴ passes the predicate.
    """
    budget = resolve_budget(budget)
    A = cert.aset
    A2, A4 = power(A, 2, budget), power(A, 4, budget)
    slice_set, T = A2.filter(member), A4.filter(member)
    left_row = A.parent.left_row
    cells = (left_row(u, A.members) for u in power(cert.witness, 3, budget).sorted_members())
    C = _slice_scan(T, cells, slice_set, "slice cover left elements exposed")
    if len(C) > cert.K_upper ** 3:
        raise CertificateError("slice witness exceeded K^3")
    if len(slice_set) ** 2 > budget:
        raise BudgetExceeded("product", len(slice_set) ** 2, budget)
    square = A4 if len(slice_set) == len(A2) else power(slice_set, 2, budget)
    if not square.members <= T.members:
        missing = len(square.members - T.members)
        raise CertificateError(f"slice square leaves A^4 ∩ H ({missing} elements exposed)")
    return ApproxCertificate(slice_set, C, len(square))


# --------------------------------------------------------------------------
# Sumset growth in abelian groups
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SumsetRow:
    m: int
    n: int
    size: int
    bound: Fraction
    within: bool


def sumset_growth_table(
    A: GSet,
    mmax: int = 4,
    nmax: int = 4,
    budget: int | None = None,
) -> tuple[Fraction, list[SumsetRow]]:
    """|mA - nA| against K^{m+n} |A| with K = |A+A|/|A|, all exact.

    mA comes from A's power walk (shared in a finite parent, where
    `doubling_constant` has walked to A² already; with 1 ∈ A each step
    multiplies only the newest layer), and each row extends mA by one
    difference at a time.  The table counts |mA|·|A| for each positive step
    and |S|·|A| for each difference, cumulatively, against the budget before
    it takes the set, so its BudgetExceeded is the same as if it multiplied
    every cell out.
    """
    budget = resolve_budget(budget)
    if len(A) == 0:
        raise ValueError("empty set")
    if not A.parent.is_abelian():
        raise NotAbelian("sumset growth is an abelian statement")
    neg = inverse_set(A)
    K = doubling_constant(A, budget)
    pairs = 0

    def count(S: GSet) -> None:
        nonlocal pairs
        pairs += len(S) * len(A)
        if pairs > budget:
            raise BudgetExceeded("sumset_growth_table", pairs, budget)

    rows = []
    walk = powers(A, budget)
    pos = next(walk)
    for m in range(1, mmax + 1):
        if m > 1:
            count(pos)
            pos = next(walk)
        cur = pos
        for n in range(0, nmax + 1):
            if n > 0:
                count(cur)
                cur = product(cur, neg, budget)
            if m + n < 2:
                continue
            bound = K ** (m + n) * len(A)
            rows.append(SumsetRow(m, n, len(cur), bound, len(cur) <= bound))
    return K, rows


# --------------------------------------------------------------------------
# Multiplicativity-preserving maps and image certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialMap:
    """A pointwise map from a finite set into another group."""

    domain: GSet
    codomain: object
    table: tuple  # sorted ((coords, image_coords), ...)

    @classmethod
    def from_function(cls, domain: GSet, codomain, fn) -> "PartialMap":
        rows = []
        for a in domain.elements():
            img = fn(a)
            if img.parent != codomain:
                raise ParentMismatch("image lands outside the declared codomain")
            rows.append((a.coords, img.coords))
        return cls(domain, codomain, tuple(rows))

    def mapping(self) -> dict:
        return dict(self.table)

    def image_set(self) -> GSet:
        return GSet(self.codomain, (img for _, img in self.table), _reduced=True)


def is_centred_triple_hom(fmap: PartialMap, budget: int | None = None) -> bool:
    """Check the centred order-3 condition on every triple.

    Equal triple products a1 a2 a3 = b1 b2 b3 must have equal image products;
    the identity must map to the identity and inverses to inverses.  A
    triple is a pair (a1 a2, f(a1) f(a2)) extended by a3, so the check
    extends each distinct pair product once.  Two pairs with one product and
    two images fail at once: every a3 extends them to a failing triple.  The
    budget still guards the |A|³ triples.
    """
    budget = resolve_budget(budget)
    A = fmap.domain
    parent = A.parent
    table = fmap.mapping()
    ident = parent.identity_coords()
    if ident in table and table[ident] != fmap.codomain.identity_coords():
        return False
    inv, cinv = parent.inv, fmap.codomain.inv
    for a in A.members:
        ai = inv(a)
        if ai in table and table[ai] != cinv(table[a]):
            return False
    n = len(A)
    if n ** 3 > budget:
        raise BudgetExceeded("is_centred_triple_hom", n ** 3, budget)
    mul, cmul = parent.mul, fmap.codomain.mul
    images = [(a, table[a]) for a in A.sorted_members()]
    pairs: dict[tuple, tuple] = {}
    for a1, f1 in images:
        for a2, f2 in images:
            p12, f12 = mul(a1, a2), cmul(f1, f2)
            if pairs.setdefault(p12, f12) != f12:
                return False
    seen: dict[tuple, tuple] = {}
    for p12, f12 in pairs.items():
        for a3, f3 in images:
            f = cmul(f12, f3)
            if seen.setdefault(mul(p12, a3), f) != f:
                return False
    return True


def _first_splits(A: GSet, targets: frozenset) -> dict:
    """The first pair (a1, a2) of A × A in sorted order with a1·a2 = x, for
    each x of `targets` that has one; the scan stops once all are found."""
    mul, members = A.parent.mul, A.sorted_members()
    splits: dict[tuple, tuple] = {}
    for a1 in members:
        for a2 in members:
            x = mul(a1, a2)
            if x in targets and x not in splits:
                splits[x] = (a1, a2)
                if len(splits) == len(targets):
                    return splits
    return splits


def image_certificate(
    fmap: PartialMap,
    budget: int | None = None,
    check_hom: bool = True,
    source: ApproxCertificate | None = None,
) -> ApproxCertificate:
    """Push a certificate through a centred order-3 map.

    The witness is the source certificate's (by default re-derived
    greedily, so it sits inside A^2).  Each witness element is split as the
    first product a1·a2 of two set elements in sorted order, found in one
    scan of the pairs, and the images of those splittings witness the image
    set; the order-3 condition makes the covering identity transport.
    """
    budget = resolve_budget(budget)
    A = fmap.domain
    if source is not None and source.aset != A:
        raise CertificateError("source certificate is for another set")
    if check_hom and not is_centred_triple_hom(fmap, budget):
        raise CertificateError("map is not a centred order-3 homomorphism on the set")
    base = source or greedy_cover_certificate(A, budget)
    table = fmap.mapping()
    cmul = fmap.codomain.mul
    splits = _first_splits(A, base.witness.members)
    if len(splits) < len(base.witness):
        raise CertificateError("witness element is not a product of two set elements")
    images = [cmul(table[a1], table[a2]) for a1, a2 in splits.values()]
    B = fmap.image_set()
    Y = GSet(fmap.codomain, images, _reduced=True)
    return certify(B, Y, budget)
