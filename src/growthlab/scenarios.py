"""Scenario runner, report plumbing, and the builtin verification suites.

A scenario is one named set (built from a recipe) plus an ordered list of
operations; running it yields a report of per-op JSON records.  Everything
is deterministic given the recipe seeds, so a rerun of any scenario or
suite emits byte-identical reports.  Hard-assertion failures are recorded
with ``passed: false`` (the command line turns them into a nonzero exit);
budget exhaustion aborts the scenario instead of masking it.

The builtin suites double as the package's verification battery: each one
exercises a lemma-level operation across seeded instances, and every
certificate produced along the way is re-checked against the growth law
|A^m| <= K^{m-1}|A| for m <= 5.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .approx import (
    PartialMap,
    greedy_cover_certificate,
    growth_law,
    image_certificate,
    is_centred_triple_hom,
    slicing_cover,
    sumset_growth_table,
)
from .config import resolve_budget
from .covering import chang_cover, ruzsa_cover
from .errors import BudgetExceeded, FormatError, GrowthLabError, RecipeError
from .groups import Element, FiniteAbelian
from .gset import GSet, growth_stats, power
from .oracle import derive_sanders_cover, difference_body, find_coset_progression
from .pipeline import (
    build_section,
    corollary_covers,
    decompose,
    abelian_factorization,
    pullback_check,
    step_reduction,
)
from .progressions import ProgressionSpec, verify_chain
from .recipes import check_recipe, generate_example
from .subgroups import QuotientView, derived_subgroup, quotient_project
from .textio import dumps_csv, dumps_json, format_group, parse_coord_list

SCHEMA = 1


@dataclass(frozen=True)
class Scenario:
    """One deterministic set plus the operations to run on it; building one checks nothing."""

    name: str
    recipe: str
    ops: tuple[dict, ...]

    def to_obj(self) -> dict:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "recipe": self.recipe,
            "ops": [dict(op) for op in self.ops],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Scenario":
        if not isinstance(obj, dict):
            raise FormatError(f"scenario must be a JSON object, got {type(obj).__name__}")
        try:
            if int(obj.get("schema", SCHEMA)) != SCHEMA:
                raise FormatError(f"unsupported scenario schema {obj['schema']!r}")
            scenario = cls(str(obj["name"]), str(obj["recipe"]), tuple(dict(op) for op in obj["ops"]))
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(f"scenario object is malformed: {e}")
        scenario.op_params()  # a malformed op fails the whole file before anything runs
        return scenario

    def op_params(self) -> list[dict]:
        """Each op's parameters, checked against the scenario's group; builds no set.

        Malformed ops and recipes raise FormatError or RecipeError.
        """
        parent = check_recipe(self.recipe)[0]
        return [_op_params(op, parent) for op in self.ops]


@dataclass
class Report:
    """Per-op records with pass/fail counts; serialises deterministically."""

    name: str
    records: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.get("passed"))

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.get("passed"))

    def to_obj(self) -> dict:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "records": self.records,
        }

    def to_json(self) -> str:
        return dumps_json(self.to_obj())

    def to_csv(self) -> str:
        """Flat rows (scenario, index, op, passed, detail-JSON), fixed order."""
        import json

        rows = []
        for i, rec in enumerate(self.records):
            detail = {
                k: v for k, v in rec.items() if k not in ("op", "passed", "scenario")
            }
            rows.append(
                (
                    rec.get("scenario", self.name),
                    i,
                    rec.get("op", ""),
                    "true" if rec.get("passed") else "false",
                    json.dumps(detail, sort_keys=True),
                )
            )
        return dumps_csv(rows, ("scenario", "index", "op", "passed", "detail"))


# --------------------------------------------------------------------------
# Op parameter schema

_REQUIRED = object()  # the op cannot run without this key


def _text(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {type(v).__name__}")
    return v


def _int_list(v) -> tuple[int, ...]:
    return tuple(int(x) for x in str(v).split(","))


def _int_from(low: int):
    """int conversion that refuses values below `low`."""

    def check(v):
        n = int(v)
        if n < low:
            raise ValueError(f"must be at least {low}")
        return n

    return check


def _positive(convert):
    """`convert`, refusing values that are not finite and above 0."""

    def check(v):
        x = convert(v)
        if not 0 < x < math.inf:  # NaN fails both comparisons
            raise ValueError("must be finite and above 0")
        return x

    return check


def _one_of(*choices):
    def check(v):
        if v not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return v

    return check


_RECIPE = (_text, _REQUIRED)
_RANK_MAX = (_int_from(0), 3)

# op name -> {parameter: (converter, default)}.  Defaults are not converted;
# any other key is refused.
_PARAMS = {
    "stats": {"n": (_int_from(1), 3)},
    "certify": {},
    "ruzsa": {"b": _RECIPE},
    "chang": {"m": (_int_from(0), 2), "b_size": (_int_from(1), 3), "b_seed": (int, 0), "c0": (_positive(float), 8.0)},
    "slice": {"b": _RECIPE, "m": (_int_from(1), _REQUIRED), "n": (_int_from(1), _REQUIRED)},
    "chain": {
        "gens": (lambda v: parse_coord_list(_text(v)), _REQUIRED),
        "bounds": (_int_list, _REQUIRED),
        "step": (_int_from(1), None),
    },
    "plunnecke": {"limit": (_int_from(2), 5), "mmax": (_int_from(1), 4), "nmax": (_int_from(0), 4)},
    "hom": {"kind": (_one_of("lift", "dilate", "embed"), "lift"), "lam": (int, 2), "second": (_int_from(0), 5)},
    "oracle": {"rank_max": _RANK_MAX},
    "sanders": {"rank_max": _RANK_MAX},
    "section": {},
    "pullback": {
        "take": (_int_from(1), None),
        "m": (_int_from(0), 1),
        "c": (_positive(lambda v: Fraction(str(v))), Fraction(1)),
    },
    "factorize": {"rank_max": _RANK_MAX},
    "reduce": {"m": (_int_from(0), 1), "rank_max": _RANK_MAX},
    "decompose": {},
    "corollary": {"which": (_one_of("ruzsa", "chang"), _REQUIRED)},
}


def _b_in_group(params, parent) -> None:
    b = params["b"]
    try:
        group = check_recipe(b)[0]
    except (FormatError, RecipeError) as e:
        raise ValueError(f"bad 'b' {b!r}: {e}")
    if group != parent:
        raise ValueError(f"'b' {b!r} is not in the scenario's group {format_group(parent)}")


def _chain_in_group(params, parent) -> None:
    # Coordinates of the wrong arity and unmatched bounds raise ValueError.
    params["spec"] = ProgressionSpec(tuple(parent.element(c) for c in params["gens"]), params["bounds"])
    step = params["step"]
    if step is not None and step > parent.structural_step:
        raise ValueError(f"step {step} is above the structural step {parent.structural_step}")


def _hom_in_group(params, parent) -> None:
    if not isinstance(parent, FiniteAbelian) or len(parent.moduli) != 1:
        raise ValueError(f"needs a one-coordinate cyclic group, not {format_group(parent)}")


# op name -> check of its converted parameters against the scenario's group.
_IN_GROUP = {"ruzsa": _b_in_group, "slice": _b_in_group, "chain": _chain_in_group, "hom": _hom_in_group}


def _op_params(op, parent) -> dict:
    """An op's parameters, converted, defaults filled in, checked against `parent`.

    Unknown op names pass unchecked: running them records a failure.
    Malformed parameters of a known op, and keys it does not read, raise
    FormatError.
    """
    if not isinstance(op, dict) or not isinstance(op.get("op"), str):
        raise FormatError(f"scenario op must be an object with an 'op' name, got {op!r}")
    name = op["op"]
    params = {k: v for k, v in op.items() if k != "op"}
    schema = _PARAMS.get(name)
    if schema is None:
        return params
    for key in params:
        if key not in schema:
            raise FormatError(f"op {name!r} takes {', '.join(schema) or 'no parameters'}, not {key!r}")
    for key, (convert, default) in schema.items():
        if key not in params:
            if default is _REQUIRED:
                raise FormatError(f"op {name!r} needs parameter {key!r}")
            params[key] = default
            continue
        try:
            params[key] = convert(params[key])
        except (TypeError, ValueError, ArithmeticError, FormatError) as e:
            raise FormatError(f"op {name!r}: bad {key!r} {params[key]!r}: {e}")
    if name in _IN_GROUP:
        try:
            _IN_GROUP[name](params, parent)
        except ValueError as e:
            raise FormatError(f"op {name!r}: {e}")
    return params


# --------------------------------------------------------------------------
# Operation registry


def _growth_ok(cert, budget) -> bool:
    return all(r.within for r in growth_law(cert, 5, budget))


def _need_cert(state, budget):
    if "cert" not in state:
        state["cert"] = greedy_cover_certificate(state["set"], budget)
    return state["cert"]


def _op_stats(state, params, budget):
    st = growth_stats(state["set"], params["n"], budget)
    return {
        "sizes": list(st.sizes),
        "doubling": str(st.doubling),
        "tripling": str(st.tripling),
    }


def _op_certify(state, params, budget):
    cert = greedy_cover_certificate(state["set"], budget)
    state["cert"] = cert
    return {
        "K_upper": cert.K_upper,
        "K_lower": str(cert.K_lower),
        "witness_size": len(cert.witness),
        "growth_within": _growth_ok(cert, budget),
    }


def _op_ruzsa(state, params, budget):
    B = generate_example(params["b"], budget)
    rc = ruzsa_cover(state["set"], B, budget)
    return {
        "b_size": len(B),
        "x_size": len(rc.X),
        "ratio_bound": rc.ratio_bound,
        "ab_size": rc.product_size,
        "within_ratio": len(rc.X) <= rc.ratio_bound,
    }


def _op_chang(state, params, budget):
    cert = _need_cert(state, budget)
    m = params["m"]
    Am = power(state["set"], m, budget)
    rng = random.Random(params["b_seed"])
    b_size = min(params["b_size"], len(Am))
    B = GSet(state["set"].parent, rng.sample(Am.sorted_members(), b_size), _reduced=True)
    cc = chang_cover(cert, B, m, params["c0"], budget)
    cap = 2 * cert.K_upper
    return {
        "b_size": len(B),
        "t": cc.t,
        "t_bound": cc.t_bound,
        "stage_sizes": list(cc.stage_sizes),
        "hull_sizes": list(cc.hull_sizes),
        "cap": cap,
        "stages_within_cap": all(s <= cap for s in cc.stage_sizes),
        "growth_within": _growth_ok(cert, budget),
    }


def _op_slice(state, params, budget):
    certA = _need_cert(state, budget)
    # Every slice op of a scenario with the same `b` shares B's certificate,
    # and with it B's power walk.
    key = ("slice", params["b"])
    if key not in state:
        state[key] = greedy_cover_certificate(generate_example(params["b"], budget), budget)
    certB = state[key]
    m, n = params["m"], params["n"]
    sc = slicing_cover(certA, certB, m, n, budget)
    return {
        "m": m,
        "n": n,
        "count": sc.count,
        "bound": sc.bound,
        "target_size": len(sc.target),
        "core_size": len(sc.core),
        "within_bound": sc.count <= sc.bound,
        "growth_within": _growth_ok(certA, budget) and _growth_ok(certB, budget),
    }


def _op_chain(state, params, budget):
    spec = params["spec"]
    cc = verify_chain(spec, params["step"], budget)
    return {
        "rank": spec.rank,
        "step": cc.step,
        "ordered_size": cc.ordered_size,
        "word_size": cc.word_size,
        "hull_size": cc.hull_size,
        "kstar": cc.kstar,
        "theoretical_bound": cc.theoretical_bound,
        "within_bound": cc.kstar <= cc.theoretical_bound,
    }


def _op_plunnecke(state, params, budget):
    limit = params["limit"]
    K, rows = sumset_growth_table(state["set"], params["mmax"], params["nmax"], budget)
    checked = [r for r in rows if r.m + r.n <= limit]
    return {
        "K": str(K),
        "checked": len(checked),
        "all_within": all(r.within for r in checked),
    }


def _centred_rep(c: int, n: int) -> int:
    return c - n if c > n // 2 else c


def _build_partial_map(A: GSet, params) -> PartialMap:
    parent = A.parent
    n = parent.moduli[0]
    kind = params["kind"]
    if kind == "lift":
        cod = FiniteAbelian((0,))
        return PartialMap.from_function(
            A, cod, lambda a: Element(cod, (_centred_rep(a.coords[0], n),))
        )
    if kind == "dilate":
        lam = params["lam"]
        return PartialMap.from_function(
            A, parent, lambda a: Element(parent, parent.reduce((lam * a.coords[0],)))
        )
    cod = FiniteAbelian((n, params["second"]))  # kind == "embed"
    return PartialMap.from_function(A, cod, lambda a: Element(cod, (a.coords[0], 0)))


def _op_hom(state, params, budget):
    A = state["set"]
    fmap = _build_partial_map(A, params)
    centred = is_centred_triple_hom(fmap, budget)
    cert_src = _need_cert(state, budget)
    img_cert = image_certificate(fmap, budget, check_hom=False) if centred else None
    inv, cinv = A.parent.inv, fmap.codomain.inv
    table = fmap.mapping()
    inverses_ok = all(
        table[inv(a)] == cinv(table[a]) for a in A.members if inv(a) in table
    )
    rec = {
        "kind": params["kind"],
        "size": len(A),
        "centred": centred,
        "inverses_preserved": inverses_ok,
        "K_source": cert_src.K_upper,
    }
    if img_cert is not None:
        rec["K_image"] = img_cert.K_upper
        rec["image_within_source"] = img_cert.K_upper <= cert_src.K_upper
        rec["growth_within"] = _growth_ok(img_cert, budget) and _growth_ok(cert_src, budget)
    return rec


def _op_oracle(state, params, budget):
    A = state["set"]
    res = find_coset_progression(A, params["rank_max"], budget)
    D = difference_body(A, budget)
    state["oracle"] = res
    return {
        "rank": res.best.rank,
        "h_size": res.best.H.order(),
        "realized_size": len(res.best.realized),
        "body_size": res.body_size,
        "density": str(res.density),
        "inside_body": res.best.realized <= D,
    }


def _op_sanders(state, params, budget):
    A = state["set"]
    cert = _need_cert(state, budget)
    res = state.get("oracle") or find_coset_progression(A, params["rank_max"], budget)
    sc = derive_sanders_cover(cert, res, budget)
    k8_bound = Fraction(cert.K_upper) ** 8 * len(A)
    return {
        "x_size": len(sc.X),
        "doubled_size": len(sc.doubled),
        "k8_bound_ok": len(sc.doubled) <= k8_bound,
        "growth_within": _growth_ok(cert, budget),
    }


def _derived_quotient(parent, budget) -> QuotientView:
    return QuotientView(parent, derived_subgroup(parent.generators(), budget))


def _op_section(state, params, budget):
    A = state["set"]
    q = _derived_quotient(A.parent, budget)
    # build_section raises unless both defect bounds hold.
    sec = build_section(q, A, budget)
    return {
        "table_size": len(sec.table),
        "defect1_ok": True,
        "pairs_checked": sec.pairs_checked,
        "defect2_ok": True,
    }


def _op_pullback(state, params, budget):
    A = state["set"]
    q = _derived_quotient(A.parent, budget)
    piA = quotient_project(q, A)
    take = params["take"]
    P = (
        piA
        if take is None
        else GSet(q, piA.sorted_members()[:take], _reduced=True)
    )
    m, c = params["m"], params["c"]
    # pullback_check raises unless the fibre count reaches its floor.
    rep = pullback_check(q, A, P, m, c, budget)
    return {
        "m": m,
        "c": str(c),
        "fibre_size": rep.size,
        "floor": str(rep.lower_bound),
        "ok": True,
    }


def _op_factorize(state, params, budget):
    cert = _need_cert(state, budget)
    fz = abelian_factorization(cert, params["rank_max"], budget)
    rec = {
        "r": fz.r,
        "h_part_size": len(fz.H_part),
        "part_sizes": [len(p) for p in fz.cyclic_parts],
        "step": fz.step,
    }
    if fz.product_size is not None:
        rec["product_size"] = fz.product_size
        rec["density"] = str(fz.density)
    return rec


def _op_reduce(state, params, budget):
    cert = _need_cert(state, budget)
    # step_reduction raises unless every factor drops in step.
    red = step_reduction(cert, cert, params["m"], params["rank_max"], budget)
    return {
        "step_in": red.step_in,
        "r": red.r,
        "n_size": red.N.order(),
        "n_radius": red.N_radius,
        "factor_sizes": [len(f.aset) for f in red.factors],
        "product_size": red.product_size,
        "step_drop_verified": True,
    }


def _op_decompose(state, params, budget):
    cert = _need_cert(state, budget)
    try:
        dec = decompose(cert, budget)
    except BudgetExceeded:
        raise
    except GrowthLabError as e:
        # decompose is deterministic in (cert, budget): a later corollary
        # raises a copy of this error instead of running it again.  The
        # copy holds no traceback, so the failed run's frames are freed.
        state["dec"] = type(e)(*e.args)
        raise
    state["dec"] = dec
    rec = dec.to_report()
    rec["h_normal"] = dec.H.is_normal is True
    return rec


def _op_corollary(state, params, budget):
    if "dec" not in state:
        _op_decompose(state, {}, budget)
    dec = state["dec"]
    if isinstance(dec, GrowthLabError):
        raise type(dec)(*dec.args)
    which = params["which"]
    # corollary_covers raises unless its cover passes the witness scan.
    rep = corollary_covers(dec, state["cert"], which, budget)
    if which == "ruzsa":
        return {
            "which": which,
            "x_size": len(rep.X),
            "ratio_bound": rep.ratio_bound,
            "rank": rep.rank,
            "verified": True,
        }
    return {
        "which": which,
        "t": rep.t,
        "stage_sizes": list(rep.stage_sizes),
        "rank": rep.rank,
        "verified": True,
    }


_OPS = {
    "stats": _op_stats,
    "certify": _op_certify,
    "ruzsa": _op_ruzsa,
    "chang": _op_chang,
    "slice": _op_slice,
    "chain": _op_chain,
    "plunnecke": _op_plunnecke,
    "hom": _op_hom,
    "oracle": _op_oracle,
    "sanders": _op_sanders,
    "section": _op_section,
    "pullback": _op_pullback,
    "factorize": _op_factorize,
    "reduce": _op_reduce,
    "decompose": _op_decompose,
    "corollary": _op_corollary,
}

# Ops whose record must carry passed=true on these boolean keys; a false
# value is a hard-assertion failure even though the op itself returned.
_HARD_KEYS = (
    "within_ratio",
    "within_bound",
    "stages_within_cap",
    "all_within",
    "growth_within",
    "centred",
    "inverses_preserved",
    "image_within_source",
    "inside_body",
    "k8_bound_ok",
    "h_normal",
)


def run_scenario(scenario: Scenario, budget: int | None = None) -> Report:
    """Execute the ops in order; records failures, aborts only on budget.

    `op_params` refuses malformed input before the set is built.  A
    BudgetExceeded leaves with `scenario` and `scenario_op` set to the
    scenario's name and the op that ran out ("recipe" while building the
    set); it is the same exception object, traceback included.
    """
    budget = resolve_budget(budget)
    checked = scenario.op_params()
    report = Report(scenario.name)
    try:
        state = {"set": generate_example(scenario.recipe, budget)}
    except BudgetExceeded as e:
        e.scenario, e.scenario_op = scenario.name, "recipe"
        raise
    for op, params in zip(scenario.ops, checked):
        name = op["op"]
        rec = {"op": name, "scenario": scenario.name}
        if name not in _OPS:
            rec.update({"passed": False, "error": f"unknown op {name!r}"})
            report.records.append(rec)
            continue
        try:
            out = _OPS[name](state, params, budget)
            hard_ok = all(bool(out[k]) for k in _HARD_KEYS if k in out)
            rec.update(out)
            rec["passed"] = hard_ok
        except BudgetExceeded as e:
            e.scenario, e.scenario_op = scenario.name, name
            raise
        except GrowthLabError as e:
            rec.update({"passed": False, "error": f"{type(e).__name__}: {e}"})
        report.records.append(rec)
    return report


# --------------------------------------------------------------------------
# Builtin suites


_PRIMES = (101, 127, 97, 61, 43, 113, 73, 53, 89, 109)


def _suite_chain() -> list[Scenario]:
    out = []
    for name, bounds in (("chain-L11", "1,1"), ("chain-L22", "2,2")):
        out.append(
            Scenario(
                name,
                "ball ut:3:0 radius=1",
                ({"op": "chain", "gens": "1,0,0|0,0,1", "bounds": bounds, "step": 2},),
            )
        )
    return out


def _suite_ruzsa() -> list[Scenario]:
    out = []
    for i in range(100):
        if i % 5 == 4:
            a = f"random-symmetric ut:3:5 size={7 + 2 * (i % 3)} seed={700 + i}"
            b = f"random-symmetric ut:3:5 size=5 seed={800 + i}"
        else:
            n = _PRIMES[i % len(_PRIMES)]
            a = f"random-symmetric ab:{n} size={9 + 2 * (i % 17)} seed={7000 + i}"
            b = f"random-symmetric ab:{n} size={5 + 2 * (i % 4)} seed={8000 + i}"
        out.append(Scenario(f"ruzsa-{i:03d}", a, ({"op": "ruzsa", "b": b},)))
    return out


def _suite_chang() -> list[Scenario]:
    out = []
    for i in range(50):
        if i % 7 == 6:
            a = f"random-symmetric ut:3:5 size={7 + 2 * (i % 2)} seed={900 + i}"
        else:
            n = _PRIMES[i % len(_PRIMES)]
            a = f"random-symmetric ab:{n} size={9 + 2 * (i % 9)} seed={9000 + i}"
        ops = (
            {"op": "certify"},
            {"op": "chang", "m": 2, "b_size": 1 + i % 4, "b_seed": 40 + i},
        )
        out.append(Scenario(f"chang-{i:02d}", a, ops))
    return out


def _suite_plunnecke() -> list[Scenario]:
    out = []
    for i in range(200):
        n = _PRIMES[i % len(_PRIMES)]
        a = f"random-symmetric ab:{n} size={7 + 2 * (i % 4)} seed={11000 + i}"
        out.append(
            Scenario(
                f"plunnecke-{i:03d}",
                a,
                ({"op": "plunnecke", "mmax": 4, "nmax": 4, "limit": 5},),
            )
        )
    return out


def _suite_slicing() -> list[Scenario]:
    out = []
    for i in range(50):
        if i % 4 == 3:
            a = "ball ut:3:5 radius=1"
            b = f"random-symmetric ut:3:5 size=7 seed={1200 + i}"
        else:
            n = _PRIMES[i % len(_PRIMES)]
            a = f"random-symmetric ab:{n} size={9 + 2 * (i % 4)} seed={13000 + i}"
            b = f"random-symmetric ab:{n} size={5 + 2 * (i % 3)} seed={14000 + i}"
        ops = (
            {"op": "slice", "b": b, "m": 2, "n": 2},
            {"op": "slice", "b": b, "m": 3, "n": 2},
        )
        out.append(Scenario(f"slicing-{i:02d}", a, ops))
    return out


def _suite_homs() -> list[Scenario]:
    out = []
    for i in range(20):
        if i < 8:
            L = 4 + i
            n = 6 * L + 1 + 2 * i
            recipe = f"interval ab:{n} L={L}"
            op = {"op": "hom", "kind": "lift"}
        elif i < 16:
            n = _PRIMES[i % len(_PRIMES)]
            recipe = f"random-symmetric ab:{n} size={9 + 2 * (i % 4)} seed={15000 + i}"
            op = {"op": "hom", "kind": "dilate", "lam": 2 + i % 5}
        else:
            n = _PRIMES[i % len(_PRIMES)]
            recipe = f"random-symmetric ab:{n} size={9 + 2 * (i % 3)} seed={16000 + i}"
            op = {"op": "hom", "kind": "embed", "second": 5 + i}
        out.append(Scenario(f"hom-{i:02d}", recipe, (op,)))
    return out


def _suite_sections() -> list[Scenario]:
    out = []
    for m, radius in ((3, 6), (5, 8)):
        out.append(
            Scenario(
                f"section-mod{m}",
                f"ball ut:3:{m} radius={radius}",
                (
                    {"op": "section"},
                    {"op": "pullback", "m": 1, "c": "1"},
                ),
            )
        )
    return out


def _suite_pipeline() -> list[Scenario]:
    out = []
    for tag, group in (("mod3", "ut:3:3"), ("mod5", "ut:3:5"), ("free", "ut:3:0")):
        out.append(
            Scenario(
                f"pipeline-{tag}",
                f"ball {group} radius=1",
                (
                    {"op": "certify"},
                    {"op": "decompose"},
                    {"op": "corollary", "which": "ruzsa"},
                    {"op": "corollary", "which": "chang"},
                ),
            )
        )
    return out


def _suite_oracle() -> list[Scenario]:
    out = []
    composites = (12, 24, 36, 48, 60)
    for i in range(50):
        if i % 5 == 4:
            n = composites[(i // 5) % len(composites)]
            recipe = f"coset-union ab:{n} sub={n // 4} reps={1 + i % 3}"
        elif i % 5 == 3:
            n = _PRIMES[i % len(_PRIMES)]
            recipe = f"interval ab:{n} L={3 + i % 7}"
        else:
            n = _PRIMES[i % len(_PRIMES)]
            recipe = f"random-symmetric ab:{n} size={7 + 2 * (i % 8)} seed={17000 + i}"
        ops = (
            {"op": "certify"},
            {"op": "oracle", "rank_max": 2},
            {"op": "sanders"},
        )
        out.append(Scenario(f"oracle-{i:02d}", recipe, ops))
    return out


def _suite_reduction() -> list[Scenario]:
    out = []
    for tag, group in (("mod3", "ut:3:3"), ("mod5", "ut:3:5"), ("free", "ut:3:0")):
        out.append(
            Scenario(
                f"reduction-{tag}",
                f"ball {group} radius=1",
                (
                    {"op": "certify"},
                    {"op": "factorize", "rank_max": 2},
                    {"op": "reduce", "m": 1, "rank_max": 2},
                ),
            )
        )
    return out


SUITES = {
    "chain": _suite_chain,
    "ruzsa": _suite_ruzsa,
    "chang": _suite_chang,
    "plunnecke": _suite_plunnecke,
    "slicing": _suite_slicing,
    "homs": _suite_homs,
    "sections": _suite_sections,
    "pipeline": _suite_pipeline,
    "oracle": _suite_oracle,
    "reduction": _suite_reduction,
}


def _run_scenario_obj(args: tuple[dict, int | None]) -> dict:
    obj, budget = args
    return run_scenario(Scenario.from_obj(obj), budget).to_obj()


def worker_count(jobs: int, tasks: int, cpus: int | None = None) -> int:
    """Worker processes for `tasks` independent scenarios.

    Never more than asked for, than there are tasks, or than CPUs
    (`cpus`, default os.cpu_count()); jobs below 1 are malformed input.
    """
    if jobs < 1:
        raise FormatError(f"jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, tasks, cpus or os.cpu_count() or 1))


def run_suite(name: str, jobs: int = 1, budget: int | None = None) -> Report:
    """Run one builtin suite; cases are independent and merge in order."""
    if name not in SUITES:
        raise FormatError(f"unknown suite {name!r} (have: {', '.join(sorted(SUITES))})")
    return run_scenarios(name, SUITES[name](), jobs, budget)


def run_scenarios(
    name: str, scenarios: list[Scenario], jobs: int = 1, budget: int | None = None
) -> Report:
    """Run independent scenarios on up to `jobs` workers; one report, in order."""
    workers = worker_count(jobs, len(scenarios))
    merged = Report(name)
    if workers > 1:
        # Imported here: multiprocessing costs every other caller ~2 MB RSS.
        from concurrent.futures import ProcessPoolExecutor

        payload = [(s.to_obj(), budget) for s in scenarios]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_scenario_obj, payload))
        for obj in results:
            merged.records.extend(obj["records"])
    else:
        for s in scenarios:
            merged.records.extend(run_scenario(s, budget).records)
    return merged
