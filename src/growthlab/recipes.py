"""Deterministic example-set builders driven by one-line recipes.

A recipe is a single line: kind, group descriptor, then key=value
parameters, e.g.

    ball ut:3:0 radius=1
    interval ab:0 L=10
    progression ab:101 gens=3|5 bounds=4,4
    coset-union ab:12,12 sub=4,0|0,4 reps=1,0|0,1
    random-symmetric ab:101 size=21 seed=7

Every builder is deterministic; the only randomness is a seeded
random.Random, so a recipe names one set forever.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .config import resolve_budget
from .errors import BudgetExceeded, RecipeError
from .groups import Element, FiniteAbelian
from .gset import GSet, power, symmetrize
from .progressions import ProgressionSpec, ordered_progression
from .subgroups import span
from .textio import parse_coord_list, parse_group

# The parameters each recipe kind reads; any other key is refused.
_KEYS = {
    "ball": ("radius",),
    "interval": ("L",),
    "progression": ("gens", "bounds"),
    "coset-union": ("sub", "reps"),
    "random-symmetric": ("size", "seed"),
}


@dataclass(frozen=True)
class Recipe:
    kind: str
    group: str
    params: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str:
        for k, v in self.params:
            if k == key:
                return v
        raise RecipeError(f"recipe {self.kind!r} needs parameter {key!r}")


def parse_recipe(text: str) -> Recipe:
    tokens = text.split()
    if len(tokens) < 2:
        raise RecipeError(f"recipe needs at least a kind and a group: {text!r}")
    kind, group = tokens[0], tokens[1]
    params = []
    for tok in tokens[2:]:
        if "=" not in tok:
            raise RecipeError(f"recipe parameter {tok!r} is not key=value")
        k, _, v = tok.partition("=")
        if any(k == seen for seen, _ in params):
            raise RecipeError(f"recipe parameter {k!r} is given twice")
        params.append((k, v))
    return Recipe(kind, group, tuple(params))


def _int_param(recipe: Recipe, key: str) -> int:
    raw = recipe.get(key)
    try:
        return int(raw)
    except ValueError:
        raise RecipeError(f"parameter {key}={raw!r} is not an integer")


def _coords_param(parent, recipe: Recipe, key: str) -> list[tuple[int, ...]]:
    """'|'-separated coordinate tuples, each of the group's arity."""
    coords = parse_coord_list(recipe.get(key))
    for c in coords:
        if len(c) != parent.arity:
            raise RecipeError(
                f"parameter {key}: {','.join(map(str, c))} has {len(c)} coordinates, "
                f"{recipe.group} needs {parent.arity}"
            )
    return coords


def _ball(parent, radius: int, budget: int) -> GSet:
    if radius < 0:
        raise RecipeError("ball radius must be nonnegative")
    gens = GSet(parent, parent.generator_coords())
    S = symmetrize(gens)
    return power(S, max(radius, 1), budget) if radius else GSet.identity_set(parent)


def _interval(parent, L: int, budget: int) -> GSet:
    if not isinstance(parent, FiniteAbelian) or len(parent.moduli) != 1:
        raise RecipeError("interval needs a one-coordinate abelian group")
    if L < 0:
        raise RecipeError("interval length must be nonnegative")
    if 2 * L + 1 > budget:
        raise BudgetExceeded("interval", 2 * L + 1, budget)
    return GSet(parent, [(i,) for i in range(-L, L + 1)])


def _progression(parent, recipe: Recipe, budget: int) -> GSet:
    gens = tuple(Element(parent, c) for c in _coords_param(parent, recipe, "gens"))
    if not gens:
        raise RecipeError("progression needs at least one generator")
    text = recipe.get("bounds")
    try:
        bounds = tuple(int(b) for b in text.split(",") if b.strip())
    except ValueError:
        raise RecipeError(f"parameter bounds={text!r} is not a list of integers")
    if any(b < 0 for b in bounds):
        raise RecipeError("progression bounds must be nonnegative")
    if len(bounds) != len(gens):
        raise RecipeError(f"progression has {len(gens)} generators but {len(bounds)} bounds")
    return ordered_progression(ProgressionSpec(gens, bounds), budget)


def _coset_union(parent, recipe: Recipe, budget: int) -> GSet:
    sub = [Element(parent, c) for c in _coords_param(parent, recipe, "sub")]
    if not sub:
        raise RecipeError("coset-union needs at least one subgroup generator")
    reps = GSet(parent, _coords_param(parent, recipe, "reps"))
    H = span(sub, budget)
    from .gset import product  # local import keeps module deps one-way

    return product(symmetrize(reps), H.elements, budget)


def _sample_coords(parent, rng: random.Random, spread: int) -> tuple[int, ...]:
    return tuple(
        rng.randrange(m) if m else rng.randrange(-spread, spread + 1)
        for m in parent.coord_moduli
    )


def _random_symmetric(parent, size: int, seed: int, budget: int) -> GSet:
    """Identity plus seeded inverse-closed draws, grown to the exact size."""
    if size < 1:
        raise RecipeError("size must be positive")
    rng = random.Random(seed)
    spread = max(4, size)
    chosen = {parent.identity_coords()}
    for _ in range(10000):
        if len(chosen) >= size:
            break
        c = parent.reduce(_sample_coords(parent, rng, spread))
        ci = parent.inv(c)
        if c in chosen:
            continue
        if c == ci:
            chosen.add(c)
        elif size - len(chosen) >= 2:
            chosen.add(c)
            chosen.add(ci)
    if len(chosen) != size:
        raise RecipeError(
            f"could not reach a symmetric set of size {size} (got {len(chosen)})"
        )
    return GSet(parent, chosen, _reduced=True)


def generate_example(recipe: Recipe | str, budget: int | None = None) -> GSet:
    """Build the set a recipe names; always deterministic."""
    if isinstance(recipe, str):
        recipe = parse_recipe(recipe)
    budget = resolve_budget(budget)
    parent = parse_group(recipe.group)
    keys = _KEYS.get(recipe.kind)
    if keys is None:
        raise RecipeError(f"unknown recipe kind {recipe.kind!r}")
    for k, _ in recipe.params:
        if k not in keys:
            raise RecipeError(
                f"recipe {recipe.kind!r} takes {', '.join(keys)}, not {k!r}"
            )
    if recipe.kind == "ball":
        return _ball(parent, _int_param(recipe, "radius"), budget)
    if recipe.kind == "interval":
        return _interval(parent, _int_param(recipe, "L"), budget)
    if recipe.kind == "progression":
        return _progression(parent, recipe, budget)
    if recipe.kind == "coset-union":
        return _coset_union(parent, recipe, budget)
    return _random_symmetric(
        parent, _int_param(recipe, "size"), _int_param(recipe, "seed"), budget
    )
