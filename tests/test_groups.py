"""Backend arithmetic against an independent matrix oracle, plus axioms."""
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from growthlab import (
    DirectProduct,
    Element,
    FiniteAbelian,
    ParentMismatch,
    Unitriangular,
    commutator,
    heisenberg,
    parse_group,
)


def _to_matrix(parent: Unitriangular, coords) -> np.ndarray:
    M = np.eye(parent.n, dtype=object)
    for k, (i, j) in enumerate(parent.positions):
        M[i, j] = coords[k]
    return M


def _from_matrix(parent: Unitriangular, M) -> tuple:
    return parent.reduce(tuple(int(M[i, j]) for i, j in parent.positions))


def _random_coords(parent, rng):
    if isinstance(parent, FiniteAbelian):
        return tuple(
            rng.randrange(m) if m else rng.randrange(-9, 10) for m in parent.moduli
        )
    if isinstance(parent, Unitriangular):
        m = parent.modulus
        return tuple(
            rng.randrange(m) if m else rng.randrange(-9, 10)
            for _ in range(parent.arity)
        )
    off, out = 0, []
    for f in parent.factors:
        out.extend(_random_coords(f, rng))
        off += f.arity
    return tuple(out)


@pytest.mark.parametrize("n,modulus", [(3, 0), (3, 5), (4, 0), (4, 7)])
def test_unitriangular_matches_matrix_oracle(n, modulus):
    parent = Unitriangular(n, modulus)
    rng = random.Random(20240 + 10 * n + modulus)
    for _ in range(300):
        a = _random_coords(parent, rng)
        b = _random_coords(parent, rng)
        M = _to_matrix(parent, a) @ _to_matrix(parent, b)
        assert parent.mul(a, b) == _from_matrix(parent, M)
        Minv = np.array(
            np.round(np.linalg.inv(_to_matrix(parent, a).astype(float))), dtype=object
        )
        assert parent.inv(a) == _from_matrix(parent, Minv)
        assert parent.mul(a, parent.inv(a)) == parent.identity_coords()


@pytest.mark.parametrize(
    "parent",
    [
        FiniteAbelian((12, 35)),
        FiniteAbelian((0,)),
        Unitriangular(3, 5),
        Unitriangular(3, 0),
        Unitriangular(4, 3),
        DirectProduct((FiniteAbelian((4,)), Unitriangular(3, 3))),
    ],
)
def test_associativity_bulk(parent):
    rng = random.Random(99)
    for _ in range(10_000):
        a, b, c = (_random_coords(parent, rng) for _ in range(3))
        assert parent.mul(parent.mul(a, b), c) == parent.mul(a, parent.mul(b, c))


@given(
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 34)), min_size=1, max_size=6)
)
def test_abelian_axioms(coords):
    parent = FiniteAbelian((12, 35))
    e = parent.identity_coords()
    for c in coords:
        c = parent.reduce(c)
        assert parent.mul(c, e) == c
        assert parent.mul(e, c) == c
        assert parent.mul(c, parent.inv(c)) == e
    for x in coords:
        for y in coords:
            assert parent.mul(parent.reduce(x), parent.reduce(y)) == parent.mul(
                parent.reduce(y), parent.reduce(x)
            )


def test_commutator():
    H = heisenberg(0)
    x = Element(H, (1, 0, 0))
    z = Element(H, (0, 0, 1))
    c = commutator(x, z)
    assert c.coords == (0, 1, 0)  # [x,z] is the central generator
    assert commutator(x, x).is_identity()


def test_heisenberg_helper():
    assert heisenberg(5).order() == 125
    assert heisenberg(3).structural_step == 2
    assert not heisenberg(0).is_finite()
    gens = heisenberg(0).generator_coords()
    assert (1, 0, 0) in gens and (0, 0, 1) in gens


def test_element_guards():
    H = heisenberg(3)
    K = heisenberg(5)
    a = Element(H, (1, 0, 0))
    b = Element(K, (1, 0, 0))
    with pytest.raises(ParentMismatch):
        commutator(a, b)


def test_direct_product_must_be_flat():
    inner = DirectProduct((FiniteAbelian((2,)), FiniteAbelian((3,))))
    with pytest.raises(ValueError):
        DirectProduct((inner, FiniteAbelian((5,))))


# generator_coords is one rule over each backend's coordinate layout; these
# lists are the ones the per-backend rules it replaced returned.
_GENERATOR_COORDS = {
    "ab:6,0": [(1, 0), (0, 1)],
    "ut:2:5": [(1,)],
    "ut:3:5": [(1, 0, 0), (0, 0, 1)],
    "ut:4:0": [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1)],
    "prod:(ab:5);(ut:3:3)": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)],
    "prod:(ut:3:0);(ab:0,7)": [
        (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
    ],
    "ab:1,4,0": [(0, 1, 0), (0, 0, 1)],
    "ut:3:1": [],
}


@pytest.mark.parametrize("text", sorted(_GENERATOR_COORDS))
def test_generator_coords_match_the_per_backend_lists(text):
    assert parse_group(text).generator_coords() == _GENERATOR_COORDS[text]
