"""Fuzzing of the three input grammars: group descriptors, recipes and
scenario files.

Every input, well formed or not, must either run or raise a
GrowthLabError, and the command line must exit 2 on the inputs that raise.
Inputs are drawn near the grammar (right keywords, wrong values) so that
most of them get past the first check.  Recipes and scenarios run under an
element budget of 2000, so that anything that does run stays small.
"""
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from growthlab import GrowthLabError, Scenario, parse_group, run_scenario
from growthlab.cli import main
from growthlab.recipes import generate_example, parse_recipe
from growthlab.scenarios import _PARAMS

BUDGET = 2000
_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_NUMBER = st.one_of(
    st.integers(-3, 12),
    st.sampled_from(("", "x", "-0", "1e3", " ", "99999999999", "2.5")),
).map(str)


@st.composite
def _descriptor(draw, depth=0):
    kind = draw(st.sampled_from(("ab", "ut", "prod", "text") if depth < 2 else ("ab", "ut", "text")))
    if kind == "ab":
        return "ab:" + ",".join(draw(st.lists(_NUMBER, max_size=3)))
    if kind == "ut":
        return "ut:" + ":".join(draw(st.lists(_NUMBER, max_size=3)))
    if kind == "prod":
        parts = draw(st.lists(_descriptor(depth + 1), max_size=3))
        wrap = draw(st.booleans())
        sep = draw(st.sampled_from((";", "", ";;", ",")))
        tail = draw(st.sampled_from(("", ")", "(", "()")))
        return "prod:" + sep.join(f"({p})" if wrap else p for p in parts) + tail
    return draw(st.text(alphabet="abutprod:(),;0123456789- ", max_size=16))


_COORDS = st.lists(
    st.lists(st.integers(-3, 9), max_size=4).map(lambda c: ",".join(map(str, c))), max_size=3
).map("|".join)
_KINDS = ("ball", "interval", "progression", "coset-union", "random-symmetric", "nope")
_KEYS = ("radius", "L", "gens", "bounds", "sub", "reps", "size", "seed", "zz")


@st.composite
def _recipe(draw):
    tokens = [draw(st.sampled_from(_KINDS)), draw(_descriptor())]
    for key in draw(st.lists(st.sampled_from(_KEYS), max_size=3)):
        if key in ("gens", "sub", "reps"):
            value = draw(_COORDS)
        elif key == "bounds":
            value = ",".join(map(str, draw(st.lists(st.integers(-2, 5), max_size=3))))
        else:
            value = draw(_NUMBER)
        tokens.append(f"{key}={value}" if draw(st.integers(0, 9)) else key)
    return " ".join(tokens)


_VALUE = st.one_of(
    _NUMBER,
    st.integers(-2, 4),
    st.sampled_from((
        "1,0,0|0,0,1", "1|2", "1,1", "ruzsa", "chang", "lift", "dilate", "embed", "1/2",
        "ball ab:7 radius=1", "interval ab:11 L=2", None, True, [1], {"a": 1},
    )),
)


@st.composite
def _op(draw):
    name = draw(st.sampled_from(sorted(_PARAMS) + ["nope"]))
    keys = sorted(_PARAMS.get(name, {})) + ["zz"]
    op = {"op": name}
    for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=4)):
        op[key] = draw(_VALUE)
    return op


@st.composite
def _scenario_obj(draw):
    obj = {"name": draw(st.text(max_size=4)), "recipe": draw(_recipe()), "ops": draw(st.lists(_op(), max_size=3))}
    for key in draw(st.lists(st.sampled_from(("schema", "name", "recipe", "ops")), unique=True, max_size=2)):
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(_VALUE)
    return draw(st.one_of(st.just(obj), st.just([obj]), _VALUE))


def _cli(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse refuses some token shapes itself, with 2
        return e.code


@_FUZZ
@given(_descriptor())
def test_parse_group_runs_or_raises_growthlab_error(text):
    try:
        parse_group(text)
    except GrowthLabError:
        pass


@_FUZZ
@given(_recipe())
@example("interval ab:0 L=99999999999")  # 2L+1 elements: refused by the budget
@example("progression ab:101 gens= bounds=")  # no generator
@example("coset-union ab:12 sub= reps=1")  # no subgroup generator
def test_recipes_run_or_raise_growthlab_error(text):
    try:
        parse_recipe(text)
        generate_example(text, BUDGET)
    except GrowthLabError:
        assert _cli(["gen", *text.split(), "--budget", str(BUDGET)]) == 2


@_FUZZ
@given(_scenario_obj())
@example(None)  # a JSON list of scenarios may hold a non-object
# A step above the structural step: its chain bound has over 4,300 digits,
# more than the report's JSON may print.
@example({"name": "s", "recipe": "ball ab:7 radius=0",
          "ops": [{"op": "chain", "gens": "1", "bounds": "1", "step": 36}]})
# Malformed op input checked against the scenario's group before anything runs.
@example({"name": "s", "recipe": "ball ab:7 radius=1",
          "ops": [{"op": "chain", "gens": "1,0", "bounds": "1"}, {"op": "stats"}]})
@example({"name": "s", "recipe": "ball ab:7,7 radius=1", "ops": [{"op": "hom"}]})
@example({"name": "s", "recipe": "interval ab:7 L=1", "ops": [{"op": "ruzsa", "b": "ball xy:9 radius=1"}]})
@example({"name": "s", "recipe": "interval ab:7 L=1",
          "ops": [{"op": "slice", "b": "interval ab:7 L=x", "m": 2, "n": 2}]})
@example({"name": "s", "recipe": "interval ab:7 L=1", "ops": [{"op": "ruzsa", "b": "interval ab:11 L=1"}]})
@example({"name": "s", "recipe": "interval ab:7 L=1", "ops": [{"op": "stats", "N": 5}]})
def test_scenario_files_run_or_raise_growthlab_error(obj):
    try:
        objs = obj if isinstance(obj, list) else [obj]
        for o in objs:
            run_scenario(Scenario.from_obj(o), BUDGET).to_json()
    except GrowthLabError:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scenarios.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            assert _cli(["suite", path, "--budget", str(BUDGET), "--out", os.devnull]) == 2
