"""Exact element arithmetic for the concrete group backends.

Elements are immutable coordinate tuples attached to a parent descriptor.
Backends: finite-or-free abelian groups, unitriangular integer matrix groups
with entries modulo m (m = 0 means plain integers), and flat direct products
of the two.  All arithmetic is exact; canonical coordinates make equality,
hashing and ordering trivial.

Each backend states its group law as data, and everything else about its
coordinates is derived from that once, on `GroupDescriptor`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Iterator

from .errors import ParentMismatch


class GroupDescriptor:
    """Common interface of the backends.  Instances are immutable and hashable.

    A base backend gives its law as two pieces of data.  `coord_moduli`
    holds the modulus of each coordinate (0: unbounded).  `law_table` lists
    (k, the pairs (s, t) of coordinate k) in solve order, for the law
    c_k = a_k + b_k + Σ a_s·b_t (mod m_k): every t of k's pairs comes
    before k.  Everything below but `mul` and `inv` is derived from these.
    """

    structural_step: int
    coord_moduli: tuple[int, ...]
    law_table: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    @property
    def arity(self) -> int:
        return len(self.coord_moduli)

    def reduce(self, coords):
        moduli = self.coord_moduli
        if len(coords) != len(moduli):
            raise ValueError(f"expected {len(moduli)} coordinates")
        return tuple([c % m if m else c for c, m in zip(coords, moduli)])

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # Row kernels: one fixed element times a whole set, in order.  Set-level
    # loops go through these, so a backend may override them with
    # straight-line code that skips a `mul` call per pair.
    def left_row(self, a, bs) -> list:
        """[a·b for b in bs]."""
        mul = self.mul
        return [mul(a, b) for b in bs]

    def right_row(self, as_, b) -> list:
        """[a·b for a in as_]."""
        mul = self.mul
        return [mul(a, b) for a in as_]

    def identity_coords(self) -> tuple[int, ...]:
        return (0,) * len(self.coord_moduli)

    def is_finite(self) -> bool:
        return 0 not in self.coord_moduli

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        return math.prod(self.coord_moduli) if self.is_finite() else None

    def iter_coords(self) -> Iterator[tuple[int, ...]]:
        """Enumerate the whole group (finite backends only), in tuple order."""
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        return itertools.product(*map(range, self.coord_moduli))

    @property
    def abelian_coords(self) -> tuple[int, ...]:
        """The coordinates no product feeds (no pairs), in order: the law only
        adds them, so the abelianization keeps exactly these, and their unit
        vectors generate the group."""
        return tuple(sorted(k for k, pairs in self.law_table if not pairs))

    def is_abelian(self) -> bool:
        return not any(pairs for _, pairs in self.law_table)

    def generator_coords(self) -> list[tuple[int, ...]]:
        """Unit vectors at the abelian coordinates whose modulus is not 1."""
        moduli, zeros = self.coord_moduli, self.identity_coords()
        return [zeros[:k] + (1,) + zeros[k + 1:] for k in self.abelian_coords if moduli[k] != 1]

    # convenience wrappers over Element
    def element(self, coords) -> "Element":
        return Element(self, self.reduce(tuple(coords)))

    def generators(self) -> list["Element"]:
        return [Element(self, c) for c in self.generator_coords()]


class _CompiledLaw(GroupDescriptor):
    """A backend that runs its law as code generated from its table by
    `_law_kernels`, shared by equal laws.  The methods stay on the class, so
    wrapping them there sees every call, and the instance keeps only a
    reference to the shared functions."""

    @cached_property
    def _kernels(self) -> tuple:
        return _law_kernels(self.coord_moduli, self.law_table)

    def mul(self, a, b):
        return self._kernels[0](a, b)

    def left_row(self, a, bs):
        return self._kernels[1](a, bs)

    def right_row(self, as_, b):
        return self._kernels[2](as_, b)

    def inv(self, a):
        return self._kernels[3](a)

    def __reduce__(self):
        # Compiled functions do not pickle; the descriptor is its fields.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True)
class FiniteAbelian(GroupDescriptor):
    """Direct sum of cyclic groups Z_{m_i}; modulus 0 denotes an infinite Z factor.

    Its table has no pairs.  It keeps hand-written `mul`/`inv` and the
    generic rows (README, "Backends and kernels").
    """

    moduli: tuple[int, ...]
    structural_step = 1

    def __post_init__(self):
        if len(self.moduli) == 0:
            raise ValueError("need at least one cyclic factor")
        if any(m < 0 for m in self.moduli):
            raise ValueError("moduli must be >= 0")

    # Plain properties: a cached one writes the instance `__dict__`, which
    # slows each `self.moduli` in `mul` (a row by about 20%, CPython 3.11).
    @property
    def coord_moduli(self) -> tuple[int, ...]:
        return self.moduli

    @property
    def law_table(self):
        return tuple((k, ()) for k in range(len(self.moduli)))

    # The kernels below are the hot path of every set operation; the plain
    # per-coordinate reference they must agree with is in tests/test_kernels.py.
    def mul(self, a, b):
        moduli = self.moduli
        if len(moduli) == 1:
            m = moduli[0]
            return ((a[0] + b[0]) % m if m else a[0] + b[0],)
        return tuple([(x + y) % m if m else x + y for x, y, m in zip(a, b, moduli)])

    def inv(self, a):
        moduli = self.moduli
        if len(moduli) == 1:
            m = moduli[0]
            return (-a[0] % m if m else -a[0],)
        return tuple([-x % m if m else -x for x, m in zip(a, moduli)])


@dataclass(frozen=True)
class Unitriangular(_CompiledLaw):
    """Upper unitriangular n x n matrices over Z_m (m = 0: over Z).

    Coordinates store the strictly-upper entries row-major:
    (0,1),(0,2),...,(0,n-1),(1,2),...,(n-2,n-1).
    """

    n: int
    modulus: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.modulus < 0:
            raise ValueError("modulus must be >= 0")

    @cached_property
    def positions(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(self.n) for j in range(i + 1, self.n))

    @cached_property
    def pos_index(self) -> dict[tuple[int, int], int]:
        return {p: k for k, p in enumerate(self.positions)}

    @property
    def structural_step(self) -> int:
        return self.n - 1

    @cached_property
    def coord_moduli(self) -> tuple[int, ...]:
        return (self.modulus,) * len(self.positions)

    @cached_property
    def law_table(self):
        """Entry (i, j) of a·b is a_ij + b_ij + Σ a_it·b_tj over i < t < j;
        listed by gap j - i, so the inverse is solved shortest gaps first."""
        idx, n = self.pos_index, self.n
        return tuple(
            (idx[(i, i + gap)], tuple((idx[(i, t)], idx[(t, i + gap)]) for t in range(i + 1, i + gap)))
            for gap in range(1, n) for i in range(n - gap)
        )


# At most 256 laws stay compiled, least recently used out first.  A ut:8 law
# holds about 27 kB, and a benchmark pass meets at most 16 laws.  Equal
# descriptors share one law while it is cached.
@lru_cache(maxsize=256)
def _law_kernels(moduli: tuple[int, ...], table: tuple) -> tuple:
    """Straight-line (mul, left_row, right_row, inv) of one coordinate law.

    Coordinate k of a·b is a_k + b_k + Σ a_s·b_t over k's pairs in `table`,
    and the inverse e solves a·e = 1 as e_k = -a_k - Σ a_s·e_t in table
    order.  The generated source names coordinate k of a, b and e as ak, bk
    and ek, and reduces each entry modulo the literal m_k (m_k = 0: not at
    all; m_k = 1: the entry is written as 0); the plain per-coordinate
    reference is in tests/test_kernels.py.

    A coordinate quotient is its base's table with modulus 1 on Z: when no
    coordinate outside Z has a pair that reads one inside it, this is the
    law of G/K, K every tuple supported on Z (`QuotientView`).
    """

    def entry(k, terms):
        m = moduli[k]
        if m == 1:
            return "0"
        return f"({' '.join(terms)}) % {m}" if m else " ".join(terms)

    def coords(x):
        return "(" + "".join(f"{x}{k}, " for k in range(len(moduli))) + ")"

    a, b, e = coords("a"), coords("b"), coords("e")
    ab = "(" + "".join(
        entry(k, [f"a{k} + b{k}"] + [f"+ a{s} * b{t}" for s, t in pairs]) + ", " for k, pairs in sorted(table)
    ) + ")"
    solve = "".join(
        f"    e{k} = {entry(k, [f'-a{k}'] + [f'- a{s} * e{t}' for s, t in pairs])}\n" for k, pairs in table
    )
    src = (
        f"def mul(a, b):\n    {a} = a\n    {b} = b\n    return {ab}\n"
        f"def left_row(a, bs):\n    {a} = a\n    return [{ab} for {b} in bs]\n"
        f"def right_row(as_, b):\n    {b} = b\n    return [{ab} for {a} in as_]\n"
        f"def inv(a):\n    {a} = a\n{solve}    return {e}\n"
    )
    ns: dict = {}
    exec(compile(src, f"<law kernels {moduli}>", "exec"), ns)
    return ns["mul"], ns["left_row"], ns["right_row"], ns["inv"]


@dataclass(frozen=True)
class DirectProduct(_CompiledLaw):
    """Flat direct product of abelian and unitriangular factors.

    Its table is the factors' tables side by side, so one compiled law
    covers every factor.
    """

    factors: tuple[GroupDescriptor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")
        for f in self.factors:
            if isinstance(f, DirectProduct):
                raise ValueError("products must be flat")
            if not isinstance(f, (FiniteAbelian, Unitriangular)):
                raise ValueError(f"unsupported factor {f!r}")

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate((f.arity for f in self.factors[:-1]), initial=0))

    @property
    def structural_step(self) -> int:
        return max(f.structural_step for f in self.factors)

    @cached_property
    def coord_moduli(self) -> tuple[int, ...]:
        return sum((f.coord_moduli for f in self.factors), ())

    @cached_property
    def law_table(self):
        return tuple(
            (off + k, tuple((off + s, off + t) for s, t in pairs))
            for f, off in zip(self.factors, self.offsets) for k, pairs in f.law_table
        )


class Element:
    """An immutable group element: a parent plus canonical coordinates."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("Element is immutable")

    def __mul__(self, other: "Element") -> "Element":
        if self.parent != other.parent:
            raise ParentMismatch(f"{self.parent!r} vs {other.parent!r}")
        return Element(self.parent, self.parent.mul(self.coords, other.coords))

    def inv(self) -> "Element":
        return Element(self.parent, self.parent.inv(self.coords))

    def is_identity(self) -> bool:
        return self.coords == self.parent.identity_coords()

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.parent == other.parent
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.parent, self.coords))

    def __lt__(self, other: "Element"):
        if self.parent != other.parent:
            raise ParentMismatch("cannot order elements of different parents")
        return self.coords < other.coords

    def __repr__(self):
        return f"Element{self.coords}"


def commutator(a: Element, b: Element) -> Element:
    """[a, b] = a^-1 b^-1 a b."""
    return a.inv() * b.inv() * a * b


def heisenberg(modulus: int = 0) -> Unitriangular:
    """UT(3, Z_m); modulus 0 gives the integer Heisenberg group."""
    return Unitriangular(3, modulus)
