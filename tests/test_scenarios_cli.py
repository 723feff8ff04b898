"""Scenario runner, suite determinism, the command-line surface and the scripts."""
import importlib.util
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import growthlab
import growthlab.gset as gset
import growthlab.scenarios as scenarios
from growthlab import (
    BudgetExceeded,
    FormatError,
    GrowthLabError,
    Report,
    Scenario,
    generate_example,
    run_scenario,
    run_suite,
)
from growthlab.cli import main
from growthlab.scenarios import worker_count
from growthlab.textio import dumps_json

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_run_scenario_records():
    s = Scenario(
        "demo",
        "interval ab:101 L=10",
        ({"op": "stats", "n": 3}, {"op": "certify"}),
    )
    rep = run_scenario(s)
    assert rep.passed == 2 and rep.failed == 0
    stats, cert = rep.records
    assert stats["op"] == "stats" and stats["scenario"] == "demo"
    assert stats["sizes"] == [21, 41, 61]
    assert cert["K_upper"] == 3 and cert["growth_within"] is True


def test_unknown_op_is_recorded_not_raised():
    rep = run_scenario(Scenario("x", "interval ab:101 L=2", ({"op": "nope"},)))
    assert rep.failed == 1
    assert "unknown op" in rep.records[0]["error"]


def test_domain_error_is_recorded():
    # oracle on a non-commuting set fails the record, not the run
    rep = run_scenario(
        Scenario("x", "ball ut:3:5 radius=1", ({"op": "oracle", "rank_max": 1},))
    )
    assert rep.failed == 1
    assert rep.records[0]["error"].startswith("NotAbelian")


def test_budget_aborts_scenario():
    with pytest.raises(BudgetExceeded):
        run_scenario(
            Scenario("x", "random-symmetric ab:101 size=21 seed=7", ({"op": "certify"},)),
            budget=100,
        )


def test_budget_abort_names_scenario_and_op():
    s = Scenario("x", "random-symmetric ab:101 size=21 seed=7", ({"op": "stats", "n": 1}, {"op": "certify"}))
    with pytest.raises(BudgetExceeded) as info:
        run_scenario(s, budget=100)
    assert (info.value.scenario, info.value.scenario_op) == ("x", "certify")
    assert info.value.op == "product"  # the library's own field is kept
    with pytest.raises(BudgetExceeded) as info:
        run_scenario(Scenario("y", "interval ab:0 L=100", ()), budget=100)
    assert (info.value.scenario, info.value.scenario_op) == ("y", "recipe")


def test_failed_decompose_runs_once_per_scenario(monkeypatch):
    # ball ut:4:2 radius=1 is a known decompose failure.  Each corollary
    # after it re-raises the stored error; the records must be those of a
    # corollary that runs decompose afresh.
    recipe = "ball ut:4:2 radius=1"
    ops = (
        {"op": "certify"},
        {"op": "decompose"},
        {"op": "corollary", "which": "ruzsa"},
        {"op": "corollary", "which": "chang"},
    )
    fresh = [run_scenario(Scenario("ut42", recipe, (ops[0], op))).records[1] for op in ops[2:]]
    calls = []
    real = scenarios.decompose
    monkeypatch.setattr(scenarios, "decompose", lambda *a: calls.append(a) or real(*a))
    rep = run_scenario(Scenario("ut42", recipe, ops))
    assert len(calls) == 1
    assert rep.records[1]["passed"] is False and "error" in rep.records[1]
    assert [dumps_json(r) for r in rep.records[2:]] == [dumps_json(r) for r in fresh]
    assert fresh[0]["error"] == rep.records[1]["error"]
    # What the state keeps is a copy without a traceback, so the failed
    # run's frames (its power chain and slices) are not kept alive.
    state = {"set": generate_example(recipe)}
    with pytest.raises(GrowthLabError):
        scenarios._op_decompose(state, {}, 5_000_000)
    assert state["dec"].__traceback__ is None


def test_scenario_obj_round_trip():
    s = Scenario("n", "interval ab:7 L=1", ({"op": "stats", "n": 2},))
    assert Scenario.from_obj(s.to_obj()) == s
    with pytest.raises(FormatError):
        Scenario.from_obj({"name": "x"})
    with pytest.raises(FormatError):
        Scenario.from_obj({"schema": 99, "name": "x", "recipe": "r", "ops": []})


def test_suite_reports_deterministic_and_parallel_merge():
    a = run_suite("sections").to_json()
    b = run_suite("sections").to_json()
    assert a == b
    c = run_suite("sections", jobs=2).to_json()
    assert c == a


def test_unknown_suite():
    with pytest.raises(FormatError):
        run_suite("nope")


def test_chain_suite_matches_golden_report():
    got = run_suite("chain").to_json()
    assert got == (GOLDEN / "chain_report.json").read_text()


def test_report_csv_shape():
    rep = Report("r", [{"op": "stats", "scenario": "s", "passed": True, "sizes": [1]}])
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "scenario,index,op,passed,detail"
    assert lines[1].startswith("s,0,stats,true,")


def test_cli_certify_exit_zero(capsys):
    rc = main(["certify", "interval", "ab:101", "L=10"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["schema"] == 1 and out["passed"] == 1


def test_cli_failing_record_exit_one(tmp_path, capsys):
    scen = tmp_path / "s.json"
    scen.write_text(
        json.dumps(
            {
                "schema": 1,
                "name": "bad",
                "recipe": "ball ut:3:5 radius=1",
                "ops": [{"op": "oracle"}],
            }
        )
    )
    rc = main(["suite", str(scen)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["failed"] == 1


def test_cli_bad_input_exit_two(capsys, monkeypatch):
    assert main(["gen", "ball", "xy:9", "radius=1"]) == 2
    assert "FormatError" in capsys.readouterr().err
    assert main(["gen", "progression", "ab:5", "gens=1", "bounds=x"]) == 2
    assert "RecipeError" in capsys.readouterr().err
    assert main(["prog", "verify", "ut:3:0", "--gens", "1,0", "--bounds", "1"]) == 2
    assert "FormatError" in capsys.readouterr().err
    assert main(["suite", "nosuch"]) == 2
    assert "FormatError: no builtin suite or scenario file 'nosuch'" in capsys.readouterr().err
    assert main(["cover", "ruzsa", "interval", "ab:7", "L=1"]) == 2
    assert "FormatError: op 'ruzsa' needs parameter 'b'" in capsys.readouterr().err
    # decompose fixes its oracle rank; the flag is for factorize and reduce
    assert main(["pipeline", "decompose", "ball", "ut:3:3", "radius=1", "--rank-max", "1"]) == 2
    assert "FormatError" in capsys.readouterr().err
    assert main(["oracle", "interval", "ab:101", "L=10", "--rank-max", "-1"]) == 2
    assert "FormatError" in capsys.readouterr().err
    # a budget below 1 is malformed input, not an exhausted budget
    assert main(["stats", "ball", "ab:7", "radius=1", "--budget", "0"]) == 2
    assert "FormatError: --budget must be at least 1" in capsys.readouterr().err
    # each action reads only its own flags; any other one is refused
    prog = ["ut:3:0", "--gens", "1,0,0|0,0,1", "--bounds", "1,1"]
    by = ["--by", "interval", "ab:101", "L=2"]
    for argv in (
        ["prog", "build", *prog, "--step", "5"],
        ["cover", "ruzsa", "interval", "ab:101", "L=3", *by, "--c0", "nan"],
        ["cover", "chang", "interval", "ab:101", "L=3", *by],
        ["pipeline", "factorize", "ball", "ut:3:3", "radius=1", "--corollary", "ruzsa", "--m", "7"],
        ["pipeline", "decompose", "ball", "ut:3:3", "radius=1", "--m", "7"],
    ):
        assert main(argv) == 2
        assert "FormatError" in capsys.readouterr().err
    monkeypatch.setenv("GROWTHLAB_BUDGET", "-3")
    assert main(["stats", "ball", "ab:7", "radius=1"]) == 2
    assert "FormatError: GROWTHLAB_BUDGET must be at least 1" in capsys.readouterr().err


def test_cli_malformed_scenario_file_exit_two(tmp_path, capsys):
    not_json = tmp_path / "broken.json"
    not_json.write_text("not json at all")
    assert main(["suite", str(not_json)]) == 2
    assert "FormatError" in capsys.readouterr().err

    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text(
        json.dumps({"schema": 1, "name": "s", "recipe": "interval ab:7 L=1", "ops": [["stats", {}]]})
    )
    assert main(["suite", str(wrong_shape)]) == 2
    assert "FormatError" in capsys.readouterr().err


def test_cli_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("GROWTHLAB_BUDGET", "100")
    rc = main(["certify", "random-symmetric", "ab:101", "size=21", "seed=7"])
    assert rc == 2
    assert "BudgetExceeded" in capsys.readouterr().err


def test_cli_budget_abort_names_scenario(monkeypatch, capsys):
    monkeypatch.setenv("GROWTHLAB_BUDGET", "3000")
    assert main(["suite", "chain"]) == 2
    err = capsys.readouterr().err
    assert "BudgetExceeded" in err
    assert "scenario 'chain-L22', op 'chain'" in err


def test_budget_abort_crosses_a_process_pool(monkeypatch, capsys):
    e = BudgetExceeded("product", 8550, 3000)
    e.scenario, e.scenario_op = "chain-L22", "chain"
    back = pickle.loads(pickle.dumps(e))
    assert (str(back), back.op, back.needed, back.budget) == (str(e), "product", 8550, 3000)
    assert (back.scenario, back.scenario_op) == ("chain-L22", "chain")
    monkeypatch.setenv("GROWTHLAB_BUDGET", "3000")
    assert main(["suite", "chain", "--jobs", "2"]) == 2
    assert "scenario 'chain-L22', op 'chain'" in capsys.readouterr().err


def test_cli_gen_formats(tmp_path, capsys):
    rc = main(["gen", "ball", "ab:7", "radius=2", "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out == "member\n0\n1\n2\n5\n6\n"
    out = tmp_path / "set.json"
    assert main(["gen", "ball", "ab:7", "radius=2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["size"] == 5


def test_cli_prog_and_cover(capsys):
    assert main(["prog", "verify", "ut:3:0", "--gens", "1,0,0|0,0,1", "--bounds", "1,1"]) == 0
    capsys.readouterr()
    rc = main(
        [
            "cover",
            "ruzsa",
            "random-symmetric",
            "ab:101",
            "size=21",
            "seed=7",
            "--by",
            "ball",
            "ab:101",
            "radius=2",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["records"][0]["x_size"] == 15


def _scenario_file(tmp_path, ops):
    path = tmp_path / "ops.json"
    path.write_text(
        json.dumps({"schema": 1, "name": "s", "recipe": "interval ab:7 L=1", "ops": ops})
    )
    return str(path)


def test_cli_missing_op_parameter_exit_two(tmp_path, capsys):
    assert main(["suite", _scenario_file(tmp_path, [{"op": "ruzsa"}])]) == 2
    err = capsys.readouterr().err
    assert "FormatError" in err and "'b'" in err


def test_cli_non_integer_op_parameter_exit_two(tmp_path, capsys):
    # Out-of-range integers are refused with the malformed ones, before the
    # library sees them.
    for op, key in (
        ({"op": "stats", "n": "x"}, "'n'"),
        ({"op": "stats", "n": 0}, "'n'"),
        ({"op": "chang", "b_size": 0}, "'b_size'"),
        ({"op": "chang", "m": -1}, "'m'"),
        ({"op": "slice", "b": "interval ab:7 L=1", "m": 0, "n": 2}, "'m'"),
        ({"op": "chain", "gens": "1", "bounds": "1", "step": 0}, "'step'"),
        ({"op": "hom", "kind": "embed", "second": -1}, "'second'"),
        ({"op": "pullback", "m": -1}, "'m'"),
        ({"op": "pullback", "take": 0}, "'take'"),
        ({"op": "pullback", "take": -1}, "'take'"),
        ({"op": "pullback", "c": "0"}, "'c'"),
        ({"op": "pullback", "c": "-1/2"}, "'c'"),
        ({"op": "plunnecke", "mmax": 0}, "'mmax'"),
        ({"op": "plunnecke", "nmax": -1}, "'nmax'"),
        ({"op": "plunnecke", "limit": 1}, "'limit'"),
        ({"op": "chang", "c0": "nan"}, "'c0'"),
        ({"op": "chang", "c0": "inf"}, "'c0'"),
        ({"op": "chang", "c0": 0}, "'c0'"),
        ({"op": "chang", "c0": -1}, "'c0'"),
    ):
        assert main(["suite", _scenario_file(tmp_path, [op])]) == 2
        err = capsys.readouterr().err
        assert "FormatError" in err and key in err
    for c0 in ("nan", "inf", "0", "-1"):
        assert main(["cover", "chang", "interval", "ab:7", "L=1", "--c0", c0]) == 2
        err = capsys.readouterr().err
        assert "FormatError" in err and "'c0'" in err


def test_chain_op_and_prog_refuse_mismatched_generators(capsys):
    # Wrong arity, one bound too few or a negative bound: a FormatError from
    # the op check, before the scenario's set is built.
    for gens, bounds in (("1,0", "1"), ("1|2", "1"), ("1", "-1")):
        s = Scenario("s", "interval ab:7 L=1", ({"op": "chain", "gens": gens, "bounds": bounds},))
        for check in (lambda: run_scenario(s), lambda: Scenario.from_obj(s.to_obj())):
            with pytest.raises(FormatError, match="^op 'chain': "):
                check()
        assert main(["prog", "build", "ab:7", "--gens", gens, "--bounds", bounds]) == 2
        assert "FormatError: op 'chain': " in capsys.readouterr().err


def test_chain_step_above_the_structural_step_exits_two(capsys):
    # ab:7 has step 1; a step of 36 gave a chain bound too long to print.
    for step in ("36", "99999999999"):
        argv = ["prog", "verify", "ab:7", "--gens", "1", "--bounds", "1", "--step", step]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"FormatError: op 'chain': step {step} is above the structural step 1" in err
    s = Scenario("s", "ball ab:7 radius=0", ({"op": "chain", "gens": "1", "bounds": "1", "step": 36},))
    with pytest.raises(FormatError, match="step 36 is above the structural step 1"):
        run_scenario(s)
    assert main(["prog", "verify", "ut:3:0", "--gens", "1,0,0|0,0,1", "--bounds", "1,1", "--step", "2"]) == 0


def test_cli_unknown_op_key_exit_two(tmp_path, capsys):
    # A key the op does not read is refused, not dropped: "N" is not "n".
    for op, message in (({"op": "stats", "N": 5}, "op 'stats' takes n, not 'N'"),
                        ({"op": "certify", "n": 3}, "op 'certify' takes no parameters, not 'n'")):
        assert main(["suite", _scenario_file(tmp_path, [op])]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"FormatError: {message}" in err


# Malformed op input that ran as a failed record, after the scenarios before
# it, until the op check took the scenario's group into account.
MALFORMED_OPS = (
    ("ball ab:7 radius=0", [{"op": "chain", "gens": "1", "bounds": "1", "step": 36}]),
    ("ball ab:7 radius=1", [{"op": "chain", "gens": "1,0", "bounds": "1"}, {"op": "stats"}]),
    ("ball ab:7,7 radius=1", [{"op": "hom"}]),
    ("interval ab:7 L=1", [{"op": "ruzsa", "b": "ball xy:9 radius=1"}]),
    ("interval ab:7 L=1", [{"op": "slice", "b": "interval ab:7 L=x", "m": 2, "n": 2}]),
    ("interval ab:7 L=1", [{"op": "ruzsa", "b": "interval ab:11 L=1"}]),
)


@pytest.mark.parametrize("recipe, ops", MALFORMED_OPS)
def test_malformed_op_input_exits_two_before_any_scenario_runs(tmp_path, capsys, monkeypatch, recipe, ops):
    built = []
    real = scenarios.generate_example
    monkeypatch.setattr(scenarios, "generate_example", lambda *a: built.append(a) or real(*a))
    path = tmp_path / "s.json"
    path.write_text(json.dumps([
        Scenario("fine", "interval ab:7 L=1", ({"op": "stats"},)).to_obj(),
        {"schema": 1, "name": "bad", "recipe": recipe, "ops": ops},
    ]))
    assert main(["suite", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "FormatError: op " in err
    assert built == []


def test_cover_by_a_set_of_another_group_exits_two(capsys):
    assert main(["cover", "ruzsa", "interval", "ab:7", "L=1", "--by", "interval", "ab:11", "L=1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "FormatError: op 'ruzsa': 'b' 'interval ab:11 L=1' is not in the scenario's group ab:7" in err


def test_cli_unreadable_or_unwritable_paths_exit_two(tmp_path, capsys):
    scen = _scenario_file(tmp_path, [{"op": "stats"}])
    for argv, message in ((["suite", str(tmp_path)], "cannot read scenario file"),
                          (["suite", scen, "--out", str(tmp_path)], "cannot write"),
                          (["suite", scen, "--out", str(tmp_path / "missing" / "x.json")], "cannot write")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"FormatError: {message} '{tmp_path}" in err


def _benchmark_scenarios() -> list:
    """Every scenario of the BENCHMARK.json workloads at seeds 0-2.

    perfbench/workloads.py is only read, as scripts/row_pairs.py reads it:
    no bytecode cache is written beside it.
    """
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = dont_write
    return [s for name in names for seed in range(3) for s in mod.WORKLOADS[name](growthlab, seed)]


def test_the_op_check_accepts_every_builtin_and_benchmark_scenario_and_builds_no_set(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the op check built a set")

    for mod in [m for n, m in sys.modules.items() if n.startswith("growthlab")]:
        for name, fn in (("power", gset.power), ("product", gset.product)):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(gset.GSet, "__init__", refuse)
    checked = [s for build in scenarios.SUITES.values() for s in build()] + _benchmark_scenarios()
    assert len(checked) > 474 * 3
    for s in checked:
        assert len(Scenario.from_obj(s.to_obj()).op_params()) == len(s.ops)


def test_stats_counts_every_power_it_reads_against_the_budget(capsys):
    # 2,000 powers of {-1, 0, 1} in Z hold about 4 M elements; each alone
    # is within the budget.
    assert main(["stats", "interval", "ab:0", "L=1", "-n", "2000", "--budget", "20000"]) == 2
    assert "BudgetExceeded: growth_stats" in capsys.readouterr().err
    assert main(["stats", "interval", "ab:0", "L=1", "-n", "140", "--budget", "20000"]) == 0
    assert json.loads(capsys.readouterr().out)["records"][0]["sizes"][-1] == 281


def test_cli_malformed_env_budget_exit_two(monkeypatch, capsys):
    monkeypatch.setenv("GROWTHLAB_BUDGET", "abc")
    assert main(["certify", "interval", "ab:101", "L=10"]) == 2
    assert "FormatError" in capsys.readouterr().err


def test_cli_suite_file_runs_on_jobs_workers(tmp_path, capsys, monkeypatch):
    scen = tmp_path / "two.json"
    scen.write_text(json.dumps([
        Scenario("a", "interval ab:101 L=5", ({"op": "certify"},)).to_obj(),
        Scenario("b", "ball ut:3:3 radius=1", ({"op": "stats", "n": 2},)).to_obj(),
    ]))
    asked = []
    real = scenarios.worker_count
    monkeypatch.setattr(
        scenarios, "worker_count", lambda jobs, tasks: asked.append(jobs) or real(jobs, tasks)
    )
    assert main(["suite", str(scen), "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["suite", str(scen), "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert asked == [1, 2]
    assert main(["suite", str(scen), "--jobs", "0"]) == 2
    assert "FormatError" in capsys.readouterr().err


def _script(name, *args):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_scripts_run_end_to_end(tmp_path):
    walk = _script("decomposition_walkthrough.py", "ball", "ut:3:3", "radius=1")
    assert walk.returncode == 0, walk.stderr
    verified = [line.split(":")[0] for line in walk.stdout.splitlines() if "verified=True" in line]
    assert verified == ["ruzsa-style cover", "chang-style cover"]
    suites = _script("run_suites.py", "--suites", "chain", "--outdir", str(tmp_path))
    assert suites.returncode == 0, suites.stderr
    assert suites.stdout.split()[:3] == ["chain", "2", "records"]
    assert suites.stdout.rstrip().endswith("ok")
    assert json.loads((tmp_path / "chain.json").read_text())["failed"] == 0


def test_run_suites_refuses_bad_arguments_with_exit_two(tmp_path):
    outdir = tmp_path / "reports"
    for args, message in ((["--jobs", "0"], "--jobs must be at least 1, got 0"),
                          (["--suites", "chain", "nosuch"], "invalid choice: 'nosuch'")):
        run = _script("run_suites.py", *args, "--outdir", str(outdir))
        assert run.returncode == 2
        assert message in run.stderr
        assert "Traceback" not in run.stderr
        assert run.stdout == ""
        assert not outdir.exists()


def test_least_budget_script_bisects_and_refuses_bad_arguments():
    run = _script("least_budget.py", "random-symmetric", "ut:3:3", "size=5", "seed=0", "--op", "decompose")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "169\n"
    # the first slice op of the builtin suite's slicing-00
    run = _script("least_budget.py", "random-symmetric", "ab:101", "size=9", "seed=13000", "--op", "slice:2,2",
                  "--by", "random-symmetric", "ab:101", "size=5", "seed=14000")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "72\n"
    for args, message in ((["ball", "ut:3:3", "radius=1", "--op", "ruzsa"], "invalid choice: 'ruzsa'"),
                          (["ball", "ut:3:3", "--op", "decompose"], "needs parameter 'radius'"),
                          (["ball", "ut:3:3", "radius=1", "--op", "slice:2,0", "--by", "ball", "ut:3:3", "radius=1"],
                           "slice needs two powers of at least 1"),
                          (["ball", "ut:3:3", "radius=1", "--op", "slice:2,2"], "--by is needed"),
                          (["ball", "ut:3:3", "radius=1", "--op", "decompose", "--by", "ball", "ut:3:3", "radius=1"],
                           "--by is needed")):
        run = _script("least_budget.py", *args)
        assert run.returncode == 2
        assert message in run.stderr
        assert "Traceback" not in run.stderr


def test_paired_passes_script_alternates_two_trees_and_refuses_bad_arguments():
    src = str(ROOT / "src")
    run = _script("paired_passes.py", src, src, "--workload", "finite-nilpotent", "--rounds", "2")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "finite-nilpotent seed 0: 13 scenarios, 2 rounds of one pass per side"
    assert [line.split()[0] for line in lines[1:4]] == ["base", "change", "change/base"]
    # The five scenarios with the highest base median latency, before the last line.
    slowest = [line.split() for line in lines[-6:-1]]
    assert [words[0] for words in slowest] == ["scenario"] * 5
    assert len({words[1] for words in slowest}) == 5
    assert all(words[2:4] == ["base", "median"] and words[5:7] == ["change", "median"] for words in slowest)
    base_medians = [float(words[4]) for words in slowest]
    assert base_medians == sorted(base_medians, reverse=True)
    assert lines[-1] == "reports identical in every round"
    for args, message in (([src, src, "--workload", "finite-nilpotent", "--rounds", "0"],
                           "--rounds must be at least 1, got 0"),
                          ([src, src, "--workload", "nosuch", "--rounds", "1"], "invalid choice: 'nosuch'"),
                          ([src, str(ROOT), "--workload", "finite-nilpotent", "--rounds", "1"],
                           "holds no growthlab package")):
        run = _script("paired_passes.py", *args)
        assert run.returncode == 2
        assert message in run.stderr
        assert "Traceback" not in run.stderr


def test_cli_jobs_below_one_exit_two(capsys):
    assert main(["suite", "sections", "--jobs", "0"]) == 2
    assert "FormatError" in capsys.readouterr().err


def test_worker_count_is_clamped():
    assert worker_count(1, 50, cpus=8) == 1
    assert worker_count(64, 50, cpus=8) == 8
    assert worker_count(64, 3, cpus=8) == 3
    assert worker_count(4, 0, cpus=8) == 1
    assert worker_count(10**9, 2) <= 2
    with pytest.raises(FormatError):
        worker_count(0, 10, cpus=8)


def _fake_checkout(root: pathlib.Path, correct=True, **values) -> pathlib.Path:
    """A tree whose perfbench/run.py prints fixed end-to-end metrics."""
    (root / "src" / "growthlab").mkdir(parents=True)
    (root / "perfbench").mkdir()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values.get(m["name"], 1.0), "unit": m["unit"]} for m in bench["end_to_end"]}
    line = json.dumps({"correct": correct, "attempted": 1, "failed": 0, "metrics": metrics})
    (root / "perfbench" / "run.py").write_text(f"print({line!r})\n")
    return root


def _harness(*argv):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "harness_pairs.py"), *map(str, argv)],
                          capture_output=True, text=True)


def test_harness_pairs_reports_each_metric_against_its_bound(tmp_path):
    base = _fake_checkout(tmp_path / "base", pass_s=1.0, peak_rss_mb=30.0)
    change = _fake_checkout(tmp_path / "change", pass_s=0.8, peak_rss_mb=33.5)
    run = _harness(base, change, "--workload", "abelian-batch", "--seed", "3", "--pairs", "2")
    assert run.returncode == 0, run.stderr
    lines = {line.split(" ")[0]: line for line in run.stdout.splitlines()}
    assert "ratio 0.8000, change won 2 of 2 pairs (0 ties), a gain, within its bound" in lines["pass_s"]
    assert "ratio 1.1167" in lines["peak_rss_mb"] and "WORSE than its bound" in lines["peak_rss_mb"]
    assert "won 0 of 2 pairs (2 ties), no gain, within its bound" in lines["setup_s"]

    broken = _fake_checkout(tmp_path / "broken", correct=False)
    assert _harness(base, broken, "--workload", "abelian-batch", "--pairs", "1").returncode == 1
    for argv in ((base, change, "--workload", "abelian-batch", "--pairs", "0"),
                 (base, change, "--workload", "abelian-batch", "--pairs", "1", "--seed", "-1"),
                 (base, change, "--workload", "no-such-workload", "--pairs", "1"),
                 (base, tmp_path / "missing", "--workload", "abelian-batch", "--pairs", "1")):
        assert _harness(*argv).returncode == 2
