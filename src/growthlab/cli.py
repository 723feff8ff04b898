"""Command-line front end.

Every analysis subcommand builds a one-off scenario and feeds it through
the same operation registry the builtin suites use, so interactive runs
and suite reports share one record schema.  Reports are deterministic for
a fixed recipe/seed; the exit code is 0 only when every hard assertion in
the run passed (2 flags malformed input or an exhausted element budget).

The element budget is taken from --budget, else the GROWTHLAB_BUDGET
environment variable, else the package default.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .config import resolve_budget
from .errors import FormatError, GrowthLabError
from .gset import GSet
from .progressions import ProgressionSpec, ordered_progression
from .recipes import generate_example
from .scenarios import SUITES, Report, Scenario, run_scenario, run_scenarios, run_suite
from .textio import (
    dumps_csv,
    dumps_json,
    parse_coord_list,
    parse_group,
    set_to_obj,
    write_text,
)


# The flags each action of a command reads.  Giving one of the command's
# other flags is a FormatError: it would be silently ignored.
_ACTION_FLAGS = {
    "cover": {"ruzsa": {"by"}, "chang": {"m", "b_size", "c0", "seed"}},
    "prog": {"build": set(), "verify": {"step"}},
    "pipeline": {
        "decompose": {"corollary"},
        "factorize": {"rank_max"},
        "reduce": {"m", "rank_max"},
    },
}


def _check_flags(args) -> None:
    if args.budget is not None and args.budget < 1:
        raise FormatError(f"--budget must be at least 1, got {args.budget}")
    actions = _ACTION_FLAGS.get(args.command)
    if actions is None:
        return
    for flag in sorted(set().union(*actions.values()) - actions[args.action]):
        if getattr(args, flag) is not None:
            raise FormatError(
                f"--{flag.replace('_', '-')} does not apply to {args.command} {args.action}"
            )


def _given(**params) -> dict:
    """The op parameters given as flags; the op's own defaults fill in the rest."""
    return {k: v for k, v in params.items() if v is not None}


def _recipe(tokens: list[str]) -> str:
    return " ".join(tokens)


def _emit_report(report: Report, args) -> int:
    text = report.to_csv() if args.format == "csv" else report.to_json()
    write_text(text, args.out)
    return 0 if report.failed == 0 else 1


def _emit_set(A: GSet, args) -> int:
    if args.format == "csv":
        rows = [(" ".join(str(c) for c in m),) for m in A.sorted_members()]
        write_text(dumps_csv(rows, ("member",)), args.out)
    else:
        write_text(dumps_json(set_to_obj(A)), args.out)
    return 0


def _scenario_run(name: str, recipe: str, ops: tuple[dict, ...], args) -> int:
    scenario = Scenario(name, recipe, ops)
    report = run_scenario(scenario, args.budget)
    return _emit_report(report, args)


def _cmd_gen(args) -> int:
    A = generate_example(_recipe(args.recipe), resolve_budget(args.budget))
    return _emit_set(A, args)


def _cmd_stats(args) -> int:
    ops = ({"op": "stats", **_given(n=args.n)},)
    return _scenario_run("stats", _recipe(args.recipe), ops, args)


def _cmd_certify(args) -> int:
    return _scenario_run("certify", _recipe(args.recipe), ({"op": "certify"},), args)


def _cmd_cover(args) -> int:
    if args.action == "ruzsa":
        if not args.by:
            raise GrowthLabError("cover ruzsa needs --by with a recipe for B")
        ops = ({"op": "ruzsa", "b": _recipe(args.by)},)
    else:
        params = _given(m=args.m, b_size=args.b_size, b_seed=args.seed, c0=args.c0)
        ops = ({"op": "certify"}, {"op": "chang", **params})
    return _scenario_run(f"cover-{args.action}", _recipe(args.recipe), ops, args)


def _prog_spec(args) -> ProgressionSpec:
    parent = parse_group(args.group)
    try:
        gens = tuple(parent.element(c) for c in parse_coord_list(args.gens))
        bounds = tuple(int(b) for b in args.bounds.split(","))
        return ProgressionSpec(gens, bounds)
    except ValueError as e:  # coordinates of the wrong arity, bad or unmatched bounds
        raise FormatError(f"bad progression --gens {args.gens!r} --bounds {args.bounds!r}: {e}")


def _cmd_prog(args) -> int:
    spec = _prog_spec(args)  # bad generators, bounds or step exit 2 before any scenario runs
    if args.action == "build":
        P = ordered_progression(spec, resolve_budget(args.budget))
        return _emit_set(P, args)
    top = spec.parent.structural_step
    if args.step is not None and args.step > top:
        raise FormatError(f"--step {args.step} is above the structural step {top}")
    ops = ({"op": "chain", "gens": args.gens, "bounds": args.bounds, **_given(step=args.step)},)
    return _scenario_run("prog-verify", f"ball {args.group} radius=0", ops, args)


def _cmd_oracle(args) -> int:
    ops = (
        {"op": "certify"},
        {"op": "oracle", **_given(rank_max=args.rank_max)},
        {"op": "sanders"},
    )
    return _scenario_run("oracle", _recipe(args.recipe), ops, args)


def _cmd_pipeline(args) -> int:
    if args.action == "decompose":
        corollary = args.corollary or "both"
        ops = [{"op": "certify"}, {"op": "decompose"}]
        if corollary in ("ruzsa", "both"):
            ops.append({"op": "corollary", "which": "ruzsa"})
        if corollary in ("chang", "both"):
            ops.append({"op": "corollary", "which": "chang"})
    elif args.action == "factorize":
        ops = [{"op": "certify"}, {"op": "factorize", **_given(rank_max=args.rank_max)}]
    else:
        ops = [{"op": "certify"}, {"op": "reduce", **_given(m=args.m, rank_max=args.rank_max)}]
    return _scenario_run(f"pipeline-{args.action}", _recipe(args.recipe), tuple(ops), args)


def _load_scenarios(path: str) -> list[Scenario]:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as e:
            raise FormatError(f"scenario file {path!r} is not valid JSON: {e}")
    objs = obj if isinstance(obj, list) else [obj]
    return [Scenario.from_obj(o) for o in objs]


def _cmd_suite(args) -> int:
    if args.name in SUITES:
        report = run_suite(args.name, args.jobs, args.budget)
    elif os.path.exists(args.name):
        scenarios = _load_scenarios(args.name)
        report = run_scenarios(os.path.basename(args.name), scenarios, args.jobs, args.budget)
    else:
        raise GrowthLabError(
            f"no builtin suite or scenario file {args.name!r} "
            f"(builtins: {', '.join(sorted(SUITES))})"
        )
    return _emit_report(report, args)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=None, help="element budget cap")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="growthlab",
        description="exact growth, covering and progression machinery for nilpotent groups",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="materialize a recipe as an explicit set")
    p.add_argument("recipe", nargs="+", help="e.g. ball ut:3:0 radius=1")
    _add_common(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("stats", help="growth sizes and doubling/tripling ratios")
    p.add_argument("recipe", nargs="+")
    p.add_argument("-n", type=int, default=None, help="highest power to size")
    _add_common(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("certify", help="approximate-group certificate with growth check")
    p.add_argument("recipe", nargs="+")
    _add_common(p)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("cover", help="covering constructions")
    p.add_argument("action", choices=("ruzsa", "chang"))
    p.add_argument("recipe", nargs="+", help="the set A to cover")
    p.add_argument("--by", nargs="+", default=None, help="recipe for B (ruzsa)")
    p.add_argument("--m", type=int, default=None, help="B is sampled inside A^m (chang)")
    p.add_argument("--b-size", type=int, default=None, dest="b_size")
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="sampling seed for B (chang)")
    _add_common(p)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("prog", help="ordered progressions and the nesting chain")
    p.add_argument("action", choices=("build", "verify"))
    p.add_argument("group", help="group descriptor, e.g. ut:3:0")
    p.add_argument("--gens", required=True, help="generators, e.g. 1,0,0|0,0,1")
    p.add_argument("--bounds", required=True, help="e.g. 1,1")
    p.add_argument("--step", type=int, default=None, help="override the nilpotency step (verify)")
    _add_common(p)
    p.set_defaults(fn=_cmd_prog)

    p = sub.add_parser("oracle", help="coset-progression search plus Sanders-style cover")
    p.add_argument("recipe", nargs="+")
    p.add_argument("--rank-max", type=int, default=None, dest="rank_max")
    _add_common(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("pipeline", help="step-reduction decomposition machinery")
    p.add_argument("action", choices=("decompose", "factorize", "reduce"))
    p.add_argument("recipe", nargs="+")
    p.add_argument(
        "--corollary", choices=("ruzsa", "chang", "both", "none"), default=None,
        help="covers to derive after decompose (default both)",
    )
    p.add_argument(
        "--rank-max", type=int, default=None, dest="rank_max",
        help="oracle rank cap for factorize and reduce",
    )
    p.add_argument("--m", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("suite", help="run a builtin suite or a JSON scenario file")
    p.add_argument("name", help=f"one of: {', '.join(sorted(SUITES))}; or a path")
    p.add_argument("--jobs", type=int, default=1, help="parallel scenario workers")
    _add_common(p)
    p.set_defaults(fn=_cmd_suite)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except GrowthLabError as e:
        where = ""
        if getattr(e, "scenario", None) is not None:
            where = f" (scenario {e.scenario!r}, op {e.scenario_op!r})"
        print(f"growthlab: {type(e).__name__}: {e}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
