"""Exact element arithmetic for the concrete group backends.

Elements are immutable coordinate tuples attached to a parent descriptor.
Backends: finite-or-free abelian groups, unitriangular integer matrix groups
with entries modulo m (m = 0 means plain integers), and flat direct products
of the two.  All arithmetic is exact; canonical coordinates make equality,
hashing and ordering trivial.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import ParentMismatch


class GroupDescriptor:
    """Common interface of the backends.  Instances are immutable and hashable."""

    arity: int
    structural_step: int

    def reduce(self, coords):
        raise NotImplementedError

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
        raise NotImplementedError

    def is_abelian(self) -> bool:
        raise NotImplementedError

    def is_finite(self) -> bool:
        raise NotImplementedError

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        raise NotImplementedError

    def iter_coords(self) -> Iterator[tuple[int, ...]]:
        """Enumerate the whole group (finite backends only)."""
        raise NotImplementedError

    # Coordinate layout.  `coord_moduli` holds the modulus of each
    # coordinate (0: unbounded).  `abelian_coords` lists, in order, the
    # coordinates the group law adds and that feed no other coordinate: the
    # abelianization keeps exactly these, and the unit vectors there
    # generate the group.
    coord_moduli: tuple[int, ...]
    abelian_coords: tuple[int, ...]

    def generator_coords(self) -> list[tuple[int, ...]]:
        """Unit vectors at the abelian coordinates whose modulus is not 1."""
        moduli, zeros = self.coord_moduli, self.identity_coords()
        return [zeros[:k] + (1,) + zeros[k + 1:] for k in self.abelian_coords if moduli[k] != 1]

    # convenience wrappers over Element
    def element(self, coords) -> "Element":
        return Element(self, self.reduce(tuple(coords)))

    def generators(self) -> list["Element"]:
        return [Element(self, c) for c in self.generator_coords()]


@dataclass(frozen=True)
class FiniteAbelian(GroupDescriptor):
    """Direct sum of cyclic groups Z_{m_i}; modulus 0 denotes an infinite Z factor."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if len(self.moduli) == 0:
            raise ValueError("need at least one cyclic factor")
        if any(m < 0 for m in self.moduli):
            raise ValueError("moduli must be >= 0")

    @property
    def arity(self) -> int:
        return len(self.moduli)

    @property
    def structural_step(self) -> int:
        return 1

    # The kernels below are the hot path of every set operation; the plain
    # per-coordinate reference they must agree with is in tests/test_kernels.py.
    def reduce(self, coords):
        moduli = self.moduli
        if len(coords) != len(moduli):
            raise ValueError(f"expected {len(moduli)} coordinates")
        if len(moduli) == 1:
            m = moduli[0]
            return (coords[0] % m if m else coords[0],)
        return tuple([c % m if m else c for c, m in zip(coords, moduli)])

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

    def identity_coords(self):
        return (0,) * len(self.moduli)

    def is_abelian(self):
        return True

    def is_finite(self):
        return all(m > 0 for m in self.moduli)

    def order(self):
        if not self.is_finite():
            return None
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def iter_coords(self):
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        return itertools.product(*(range(m) for m in self.moduli))

    @property
    def coord_moduli(self) -> tuple[int, ...]:
        return self.moduli

    @property
    def abelian_coords(self) -> tuple[int, ...]:
        return tuple(range(len(self.moduli)))


@dataclass(frozen=True)
class Unitriangular(GroupDescriptor):
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
    def arity(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def structural_step(self) -> int:
        return self.n - 1

    @cached_property
    def _pair_table(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """(k, ((idx(i,t), idx(t,j)) for i < t < j)) per position k = (i, j).

        Ordered by gap j - i, so `inv` can solve entry by entry; `mul`
        fills entries by index and does not care about the order.
        """
        idx = self.pos_index
        return tuple(
            (idx[(i, i + gap)], tuple((idx[(i, t)], idx[(t, i + gap)]) for t in range(i + 1, i + gap)))
            for gap in range(1, self.n)
            for i in range(self.n - gap)
        )

    def reduce(self, coords):
        if len(coords) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates")
        m = self.modulus
        if m:
            return tuple([c % m for c in coords])
        return tuple(coords)

    def mul(self, a, b):
        m = self.modulus
        if self.n == 3:
            a0, a1, a2 = a
            b0, b1, b2 = b
            if m:
                return ((a0 + b0) % m, (a1 + b1 + a0 * b2) % m, (a2 + b2) % m)
            return (a0 + b0, a1 + b1 + a0 * b2, a2 + b2)
        out = [0] * len(a)
        for k, pairs in self._pair_table:
            v = a[k] + b[k]
            for s, t in pairs:
                v += a[s] * b[t]
            out[k] = v % m if m else v
        return tuple(out)

    def left_row(self, a, bs):
        if self.n != 3:
            return super().left_row(a, bs)
        m = self.modulus
        a0, a1, a2 = a
        if m:
            return [((a0 + b0) % m, (a1 + b1 + a0 * b2) % m, (a2 + b2) % m) for b0, b1, b2 in bs]
        return [(a0 + b0, a1 + b1 + a0 * b2, a2 + b2) for b0, b1, b2 in bs]

    def right_row(self, as_, b):
        if self.n != 3:
            return super().right_row(as_, b)
        m = self.modulus
        b0, b1, b2 = b
        if m:
            return [((a0 + b0) % m, (a1 + b1 + a0 * b2) % m, (a2 + b2) % m) for a0, a1, a2 in as_]
        return [(a0 + b0, a1 + b1 + a0 * b2, a2 + b2) for a0, a1, a2 in as_]

    def inv(self, a):
        m = self.modulus
        if self.n == 3:
            a0, a1, a2 = a
            if m:
                return (-a0 % m, (a0 * a2 - a1) % m, -a2 % m)
            return (-a0, a0 * a2 - a1, -a2)
        # Solve (I + a)(I + e) = I entry by entry, shortest gaps first.
        e = list(a)
        for k, pairs in self._pair_table:
            v = -a[k]
            for s, t in pairs:
                v -= a[s] * e[t]
            e[k] = v % m if m else v
        return tuple(e)

    def identity_coords(self):
        return (0,) * self.arity

    def is_abelian(self):
        return self.n == 2

    def is_finite(self):
        return self.modulus > 0

    def order(self):
        return self.modulus ** self.arity if self.modulus > 0 else None

    def iter_coords(self):
        if self.modulus == 0:
            raise ValueError("cannot enumerate an infinite group")
        return itertools.product(range(self.modulus), repeat=self.arity)

    @property
    def coord_moduli(self) -> tuple[int, ...]:
        return (self.modulus,) * self.arity

    @property
    def abelian_coords(self) -> tuple[int, ...]:
        """The superdiagonal: every other entry is fed by products of entries."""
        return tuple(self.pos_index[(i, i + 1)] for i in range(self.n - 1))


@dataclass(frozen=True)
class DirectProduct(GroupDescriptor):
    """Flat direct product of abelian and unitriangular factors."""

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
        out, acc = [], 0
        for f in self.factors:
            out.append(acc)
            acc += f.arity
        return tuple(out)

    @property
    def arity(self) -> int:
        return sum(f.arity for f in self.factors)

    @property
    def structural_step(self) -> int:
        return max(f.structural_step for f in self.factors)

    def reduce(self, coords):
        if len(coords) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates")
        coords = tuple(coords)
        out: tuple[int, ...] = ()
        for f, s in self._slices:
            out += f.reduce(coords[s])
        return out

    @cached_property
    def _slices(self) -> tuple[tuple[GroupDescriptor, slice], ...]:
        """(factor, its coordinate slice) per factor, built once."""
        return tuple((f, slice(off, off + f.arity)) for f, off in zip(self.factors, self.offsets))

    # Factor kernels are looked up per call, so wrapping a factor class's
    # `mul`/`inv` still sees the calls a product makes.
    def mul(self, a, b):
        out: tuple[int, ...] = ()
        for f, s in self._slices:
            out += f.mul(a[s], b[s])
        return out

    def inv(self, a):
        out: tuple[int, ...] = ()
        for f, s in self._slices:
            out += f.inv(a[s])
        return out

    def identity_coords(self):
        return (0,) * self.arity

    def is_abelian(self):
        return all(f.is_abelian() for f in self.factors)

    def is_finite(self):
        return all(f.is_finite() for f in self.factors)

    def order(self):
        n = 1
        for f in self.factors:
            o = f.order()
            if o is None:
                return None
            n *= o
        return n

    def iter_coords(self):
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        parts = itertools.product(*(f.iter_coords() for f in self.factors))
        return (sum(p, ()) for p in parts)

    @property
    def coord_moduli(self) -> tuple[int, ...]:
        return sum((f.coord_moduli for f in self.factors), ())

    @property
    def abelian_coords(self) -> tuple[int, ...]:
        return tuple(
            off + k for f, off in zip(self.factors, self.offsets) for k in f.abelian_coords
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


def conjugate(a: Element, g: Element) -> Element:
    """g a g^-1."""
    return g * a * g.inv()


def heisenberg(modulus: int = 0) -> Unitriangular:
    """UT(3, Z_m); modulus 0 gives the integer Heisenberg group."""
    return Unitriangular(3, modulus)
