"""Recipe grammar, group descriptors, and deterministic serialization."""
import json

import pytest

from growthlab import (
    DirectProduct,
    FiniteAbelian,
    FormatError,
    GSet,
    RecipeError,
    Unitriangular,
    parse_group,
    format_group,
)
from growthlab.recipes import Recipe, generate_example, parse_recipe
from growthlab.textio import (
    dumps_csv,
    dumps_json,
    parse_coord_list,
    parse_coords,
    set_to_obj,
)


def test_parse_group_forms():
    assert parse_group("ab:12,35") == FiniteAbelian((12, 35))
    assert parse_group("ab:0") == FiniteAbelian((0,))
    assert parse_group("ut:3:5") == Unitriangular(3, 5)
    prod = parse_group("prod:(ab:2);(ut:3:3)")
    assert isinstance(prod, DirectProduct)
    assert prod.factors == (FiniteAbelian((2,)), Unitriangular(3, 3))


def test_parse_group_flattens_nested_products():
    g = parse_group("prod:(ab:2);(prod:(ab:3);(ab:5))")
    assert g.factors == (
        FiniteAbelian((2,)),
        FiniteAbelian((3,)),
        FiniteAbelian((5,)),
    )


def test_group_round_trip():
    for text in ("ab:12,35", "ut:4:0", "prod:(ab:2);(ut:3:3)"):
        assert format_group(parse_group(text)) == text


def test_parse_group_errors():
    # ut:99999:2 is refused by its size alone, before any table is built.
    for bad in ("xy:9", "ab:", "ut:3", "ut:1:5", "prod:(ab:2)", "ut:99999:2", "ut:9:0"):
        with pytest.raises(FormatError):
            parse_group(bad)
    assert parse_group("ut:8:2") == Unitriangular(8, 2)


def test_parse_coords():
    assert parse_coords("1,0,-2") == (1, 0, -2)
    assert tuple(parse_coord_list("3|5")) == ((3,), (5,))
    assert tuple(parse_coord_list("4,0|0,4")) == ((4, 0), (0, 4))


def test_recipe_ball_frozen():
    A = generate_example("ball ut:3:0 radius=1")
    assert A.members == frozenset(
        {(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)}
    )
    assert len(generate_example("ball ut:3:0 radius=0")) == 1
    assert generate_example("ball ab:7 radius=2").members == frozenset(
        {(0,), (1,), (2,), (5,), (6,)}
    )


def test_recipe_interval_and_progression():
    I = generate_example("interval ab:0 L=10")
    assert len(I) == 21 and I.is_symmetric()
    P = generate_example("progression ab:101 gens=3|5 bounds=4,4")
    assert len(P) == 57 and P.is_symmetric()


def test_recipe_coset_union():
    U = generate_example("coset-union ab:12,12 sub=4,0|0,4 reps=1,0|0,1")
    assert len(U) == 45
    assert U.is_symmetric() and U.contains_identity()


def test_recipe_random_symmetric_frozen():
    A = generate_example("random-symmetric ab:101 size=21 seed=7")
    got = sorted(c[0] for c in A.members)
    assert got == [0, 6, 9, 12, 18, 19, 27, 33, 41, 46, 50, 51, 55, 60, 68, 74, 82, 83, 89, 92, 95]
    assert A.is_symmetric() and A.contains_identity()
    B = generate_example("random-symmetric ut:3:5 size=9 seed=3")
    assert len(B) == 9 and B.is_symmetric()
    # determinism
    assert generate_example("random-symmetric ab:101 size=21 seed=7") == A


def test_recipe_errors():
    with pytest.raises(RecipeError):
        generate_example("random-symmetric ab:3 size=5 seed=1")  # unreachable size
    with pytest.raises(RecipeError):
        generate_example("ball ut:3:0")  # missing radius
    with pytest.raises(RecipeError):
        generate_example("interval ut:3:0 L=3")  # needs one cyclic coordinate
    with pytest.raises(RecipeError):
        generate_example("mystery ab:5 size=3")
    for bad in (
        "progression ab:5 gens=1 bounds=x",
        "progression ab:5 gens=1 bounds=-3",
        "progression ab:5 gens=1|2 bounds=1",
        "progression ut:3:5 gens=1 bounds=1",  # one coordinate, ut:3 needs three
        "coset-union ab:12,12 sub=4 reps=1,0",
        "coset-union ab:12,12 sub=4,0 reps=1",
        "ball ab:5 radius=1 radius=2",  # repeated key
        "ball ab:5 radius=1 size=2",  # key the kind does not read
        "interval ab:5 radius=1",
    ):
        with pytest.raises(RecipeError):
            generate_example(bad)


def test_parse_recipe_structure():
    r = parse_recipe("ball ut:3:0 radius=2")
    assert isinstance(r, Recipe)
    assert r.kind == "ball"
    assert r.get("radius") == "2"
    with pytest.raises(RecipeError):
        r.get("missing")


def test_set_obj_round_trip():
    A = generate_example("ball ut:3:0 radius=1")
    obj = set_to_obj(A)
    assert obj["size"] == 5 and obj["group"] == "ut:3:0"
    assert [tuple(m) for m in obj["members"]] == sorted(A.members)


def test_dumps_json_deterministic():
    text = dumps_json({"b": 2, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 2\n}\n'
    assert json.loads(text) == {"a": [1, 2], "b": 2}


def test_dumps_csv():
    text = dumps_csv([(1, "x"), (2, "y")], ("n", "name"))
    assert text == "n,name\n1,x\n2,y\n"


# The sampler draws one coordinate per modulus of the descriptor's layout;
# these members are what the per-backend samplers it replaced drew.
_SAMPLED = {
    "random-symmetric prod:(ab:5);(ut:3:3) size=9 seed=4": [
        (0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 2, 1), (1, 1, 0, 2), (2, 0, 0, 2),
        (2, 2, 0, 0), (3, 0, 0, 1), (3, 1, 0, 0), (4, 2, 2, 1),
    ],
    "random-symmetric prod:(ut:3:0);(ab:0,7) size=15 seed=2": [
        (-15, 34, -2, -14, 4), (-15, 213, -15, -12, 0), (-13, -13, -4, 11, 1),
        (-8, 38, -6, -12, 5), (-7, 4, -9, 4, 0), (-3, -36, 10, 2, 2),
        (-3, 10, 8, 12, 4), (0, 0, 0, 0, 0), (3, -34, -8, -12, 3),
        (3, 6, -10, -2, 5), (7, 59, 9, -4, 0), (8, 10, 6, 12, 2),
        (13, 65, 4, -11, 6), (15, -4, 2, 14, 3), (15, 12, 15, 12, 0),
    ],
    "random-symmetric ut:4:0 size=11 seed=9": [
        (-10, 61, -457, -5, 37, -8), (-9, -1, 6, 8, 11, -10), (-6, -4, -10, -8, -7, 5),
        (-3, -17, -123, 3, 25, 6), (-1, 9, 45, -3, -20, 6), (0, 0, 0, 0, 0, 0),
        (1, -6, 11, 3, 2, -6), (3, 8, 0, -3, -7, -6), (6, 52, -208, 8, -33, -5),
        (9, -71, -815, -8, -91, 10), (10, -11, -1, 5, 3, 8),
    ],
}


@pytest.mark.parametrize("recipe", sorted(_SAMPLED))
def test_random_symmetric_sets_are_the_ones_drawn_per_backend(recipe):
    assert list(generate_example(recipe).sorted_members()) == _SAMPLED[recipe]
