import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hexcount
from hexcount import cli, closedform
from hexcount.cli import (
    EXIT_BUDGET,
    EXIT_DISAGREE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    RunReport,
    MethodResult,
    main,
    run_identities,
    run_verify,
)
from hexcount.closedform import count_theorem1
from hexcount.lgv import CountMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text_output(capsys):
    code, out, err = run(capsys, "count", "2", "1", "1", "2", "2", "1")
    assert code == EXIT_OK
    assert "agree: yes" in out
    assert out.count("81") == 3  # formula, det, det-condense


def test_count_json_counts_are_strings(capsys):
    code, out, err = run(
        capsys, "count", "1", "1", "1", "1", "1", "1",
        "--methods", "formula,det,brute,brute-pp", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["agree"] is True
    values = {r["method"]: r["value"] for r in payload["results"]}
    assert values == {
        "formula": "35", "det": "35", "brute": "35", "brute-pp": "35"
    }
    assert all(isinstance(v, str) for v in values.values())


def test_count_prints_counts_past_the_int_str_digit_limit(capsys):
    sides = ("120", "120", "120", "61", "61", "61")
    expected = count_theorem1(tuple(map(int, sides)))
    limit = sys.get_int_max_str_digits()
    code, text, err = run(capsys, "count", *sides, "--methods", "formula")
    assert code == EXIT_OK
    code, out, err = run(
        capsys, "count", *sides, "--methods", "formula", "--json"
    )
    assert code == EXIT_OK
    assert sys.get_int_max_str_digits() == limit  # the process-wide limit stays
    (result,) = json.loads(out)["results"]
    assert len(result["value"]) > limit
    assert result["value"] in text
    sys.set_int_max_str_digits(0)
    try:
        assert int(result["value"]) == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_formula_on_sides_past_the_recursion_limit(capsys):
    code, out, err = run(
        capsys, "count", "250", "250", "250", "126", "126", "126",
        "--methods", "formula",
    )
    assert code == EXIT_OK
    assert "agree: yes" in out


def test_malformed_budget_variable_is_a_usage_error(capsys, monkeypatch):
    for raw in ("abc", "0", "-5"):
        monkeypatch.setenv("HEXCOUNT_BUDGET", raw)
        code, out, err = run(
            capsys, "count", "1", "1", "1", "1", "1", "1", "--methods", "brute"
        )
        assert code == EXIT_USAGE, raw
        assert len(err.splitlines()) == 1
        assert "HEXCOUNT_BUDGET" in err and repr(raw) in err


def test_count_rejects_bad_position(capsys):
    code, out, err = run(capsys, "count", "1", "1", "1", "9", "1", "1")
    assert code == EXIT_USAGE
    assert "position r" in err


def test_count_rejects_unknown_method(capsys):
    code, out, err = run(
        capsys, "count", "1", "1", "1", "1", "1", "1", "--methods", "magic"
    )
    assert code == EXIT_USAGE
    assert "magic" in err
    code, out, err = run(capsys, "count", "1", "1", "1", "1", "1", "1", "--methods", ",")
    assert code == EXIT_USAGE
    assert err == "error: no methods given\n"


def test_count_budget_exhaustion_is_exit_3(capsys):
    code, out, err = run(
        capsys, "count", "2", "2", "2", "1", "1", "1",
        "--methods", "brute", "--budget", "10",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


@pytest.mark.parametrize("method, nodes", [("brute", 30840), ("brute-pp", 74544)])
def test_count_budget_edge_is_the_pinned_node_count(capsys, method, nodes):
    # (2,2,2,2,2,2) takes exactly `nodes` expansions: that budget is enough,
    # one unit less is not
    argv = ("count", "2", "2", "2", "2", "2", "2", "--methods", method, "--budget")
    code, out, err = run(capsys, *argv, str(nodes))
    assert code == EXIT_OK
    assert "6272" in out
    code, out, err = run(capsys, *argv, str(nodes - 1))
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_count_with_every_method_skipped_is_exit_3(capsys):
    code, out, err = run(
        capsys, "count", "2", "2", "2", "1", "1", "1",
        "--methods", "brute,brute-pp", "--budget", "10",
    )
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: enumeration exceeded the budget of 10 node expansions\n"


def test_count_budget_skip_note_when_other_methods_remain(capsys):
    code, out, err = run(
        capsys, "count", "2", "2", "2", "1", "1", "1",
        "--methods", "formula,brute", "--budget", "10",
    )
    assert code == EXIT_OK  # brute skipped, formula alone still agrees
    assert "skipped" in out


def test_propp_agrees(capsys):
    code, out, err = run(capsys, "propp", "1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    values = {r["method"]: r["value"] for r in payload["results"]}
    assert values["special-form"] == "6272"
    assert values["formula"] == "6272"
    assert payload["agree"] is True


def test_propp_rejects_negative(capsys):
    code, out, err = run(capsys, "propp", "-1")
    assert code == EXIT_USAGE


def test_propp_reads_no_budget(capsys, monkeypatch):
    # none of propp's methods enumerates, so a malformed HEXCOUNT_BUDGET
    # does not concern it, and it has no --budget option
    monkeypatch.setenv("HEXCOUNT_BUDGET", "abc")
    code, out, err = run(capsys, "propp", "0")
    assert code == EXIT_OK and err == ""
    assert re.search(r"special-form +1 ", out)
    with pytest.raises(SystemExit) as exc:
        main(["propp", "1", "--budget", "5"])
    assert exc.value.code == EXIT_USAGE
    assert "--budget" in capsys.readouterr().err


def test_verify_small_sweep(capsys):
    code, out, err = run(
        capsys, "verify", "--max-a", "1", "--max-b", "1", "--max-c", "0",
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["instances"] == sum(
        (a + 2) * (b + 2) * 2 for a in range(2) for b in range(2)
    )
    assert payload["disagreements"] == []


def test_verify_budget_skips_but_still_passes(capsys):
    code, out, err = run(
        capsys, "verify", "--max-a", "1", "--max-b", "1", "--max-c", "1",
        "--budget", "60", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["skipped"]  # some instances blew the tiny budget
    assert all(item["method"] in ("brute", "brute-pp")
               for item in payload["skipped"])


def test_verify_harness_catches_planted_fault(monkeypatch):
    planted = (1, 1, 0, 2, 1, 1)
    formula = cli.METHODS["formula"]

    def fault(params, budget):
        value = formula(params, budget)
        return value + 1 if tuple(params) == planted else value

    monkeypatch.setitem(cli.METHODS, "formula", fault)
    outcome = run_verify(1, 1, 1, include_brute=False)
    assert not outcome["ok"]
    assert len(outcome["disagreements"]) == 1
    assert tuple(outcome["disagreements"][0]["params"]) == planted


def test_verify_harness_catches_fault_against_brute(monkeypatch):
    formula = cli.METHODS["formula"]

    def fault(params, budget):
        value = formula(params, budget)
        return value * 2 if tuple(params) == (0, 0, 0, 1, 1, 1) else value

    monkeypatch.setitem(cli.METHODS, "formula", fault)
    outcome = run_verify(0, 0, 0, include_brute=True)
    assert not outcome["ok"]
    values = outcome["disagreements"][0]["values"]
    assert values["formula"] != values["brute"]


def test_identities_command(capsys):
    code, out, err = run(
        capsys, "identities", "--bound", "1", "--trials", "10", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert set(payload["checks"]) == {
        "desnanot-jacobi", "factorisation-lemma", "assembly-identity",
        "minor-step-identity", "minor-relabelling",
    }
    assert all(stats["failed"] == 0 for stats in payload["checks"].values())


def test_every_identity_check_runs_at_least_once(capsys):
    code, out, err = run(
        capsys, "identities", "--bound", "0", "--trials", "1", "--json"
    )
    assert code == EXIT_OK
    checks = json.loads(out)["checks"]
    assert len(checks) == 5
    assert all(stats["total"] >= 1 for stats in checks.values()), checks


def test_identities_reports_a_failing_case(capsys, monkeypatch):
    holds = closedform.check_lemma5_identity
    monkeypatch.setattr(closedform, "check_lemma5_identity",
                        lambda *case: case != (0, 0, 0, 0) and holds(*case))
    code, out, err = run(capsys, "identities", "--bound", "1", "--trials", "10")
    assert code == EXIT_DISAGREE
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "  FAIL minor-step-identity: (0, 0, 0, 0)", "identities FAILED"]
    assert "minor-step-identity        26 checks, 1 failed" in out
    # a relabelling fault: M doubled at (0, 0, 0, 0, 1, 2), the shape of the
    # first-low-end probe at (0, 0, 0, r, 1, 2) and of no other case
    build = closedform._matrix_unchecked
    monkeypatch.setattr(closedform, "_matrix_unchecked", lambda *shape: build(*shape)
                        if shape != (0, 0, 0, 0, 1, 2) else CountMatrix.from_rows(
                            [[2 * v for v in row] for row in build(*shape).entries]))
    code, out, err = run(capsys, "identities", "--bound", "0", "--trials", "1")
    assert code == EXIT_DISAGREE
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "  FAIL minor-step-identity: (0, 0, 0, 0)",
        "  FAIL minor-relabelling: (0, 0, 0, 1, 1, 2): ['first-low-end']",
        "  FAIL minor-relabelling: (0, 0, 0, 2, 1, 2): ['first-low-end']",
        "identities FAILED"]
    assert "minor-relabelling           8 checks, 2 failed" in out


def test_identities_deterministic_given_seed():
    one = run_identities(1, 15, seed=7)
    two = run_identities(1, 15, seed=7)
    assert one == two


def test_render_writes_file(tmp_path, capsys):
    out_file = tmp_path / "tiling.svg"
    code, out, err = run(
        capsys, "render", "2", "1", "1", "2", "2", "1",
        "--out", str(out_file), "--index", "3",
    )
    assert code == EXIT_OK
    text = out_file.read_text()
    assert text.count("<polygon") == 20
    # same index renders identical bytes
    out_file2 = tmp_path / "again.svg"
    run(capsys, "render", "2", "1", "1", "2", "2", "1",
        "--out", str(out_file2), "--index", "3")
    assert out_file2.read_text() == text


def test_render_full_and_region(tmp_path, capsys):
    full_file = tmp_path / "full.svg"
    code, _, _ = run(
        capsys, "render", "2", "1", "1", "2", "2", "1",
        "--out", str(full_file), "--full",
    )
    assert code == EXIT_OK
    assert full_file.read_text().count("<polygon") == 33
    region_file = tmp_path / "region.svg"
    code, _, _ = run(
        capsys, "render", "2", "1", "1", "2", "2", "1",
        "--out", str(region_file), "--region-only",
    )
    assert code == EXIT_OK
    assert region_file.read_text().count("<polygon") == 40


def test_render_region_only_full_renders_the_full_hexagon(tmp_path, capsys):
    target = tmp_path / "full-region.svg"
    code, out, err = run(
        capsys, "render", "2", "1", "1", "2", "2", "1",
        "--out", str(target), "--region-only", "--full",
    )
    assert code == EXIT_OK
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "711da56d6fbd13ee1cb27a5c5d56d9d38e2dcd83caced2b039bc3ad479ba3491")


def test_render_rejects_a_negative_index(tmp_path, capsys):
    target = tmp_path / "x.svg"
    for extra in ((), ("--region-only",)):
        code, out, err = run(
            capsys, "render", "1", "1", "1", "1", "1", "1",
            "--out", str(target), "--index", "-3", *extra,
        )
        assert code == EXIT_USAGE
        assert "--index must be >= 0" in err
        assert not target.exists()


def test_render_index_out_of_range(tmp_path, capsys):
    code, out, err = run(
        capsys, "render", "0", "0", "0", "1", "1", "1",
        "--out", str(tmp_path / "x.svg"), "--index", "5",
    )
    assert code == EXIT_USAGE
    assert "only 1 tilings exist" in err


def test_usage_errors_name_the_flag_and_the_value(tmp_path, capsys):
    target = str(tmp_path / "x.svg")
    for argv, message in (
        (("verify", "--max-b", "-1"), "--max-b must be >= 0, got -1"),
        (("identities", "--bound", "-1"), "--bound must be >= 0, got -1"),
        (("identities", "--trials", "0"), "--trials must be >= 1, got 0"),
        (("count", "1", "1", "1", "1", "1", "1", "--budget", "0"),
         "budget must be >= 1, got 0"),
        (("propp", "-1"), "n must be >= 0, got -1"),
        (("render", "1", "1", "1", "1", "1", "1", "--out", target, "--index", "-3"),
         "--index must be >= 0, got -3"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n"), argv



def test_render_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    for extra in ((), ("--region-only",)):
        code, out, err = run(
            capsys, "render", "1", "1", "1", "1", "1", "1",
            "--out", str(target), *extra,
        )
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1
        assert str(target) in err
        assert not target.exists()


def test_render_has_no_depth_limit(tmp_path):
    # the first sides-24 tiling has 1,324 path vertices, past the depth at
    # which a recursive search would overflow the interpreter stack
    src = str(Path(hexcount.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    target = tmp_path / "x.svg"
    done = subprocess.run(
        [sys.executable, "-m", "hexcount.cli", "render",
         "24", "24", "24", "1", "1", "1", "--out", str(target)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stderr == ""
    assert target.read_text().count("<polygon") == 1947


def test_plane_partition_count_has_no_depth_limit(capsys):
    # 1,002 rows, past the depth of a recursive row-by-row fill
    code, out, err = run(capsys, "count", "1000", "0", "0", "1", "1", "1",
                         "--methods", "brute-pp,formula")
    assert code == EXIT_OK
    assert err == ""
    assert [line.split()[:2] for line in out.splitlines()[1:3]] == [
        ["brute-pp", "1001"], ["formula", "1001"]]


def test_determinants_are_taken_on_the_turn_with_the_fewest_paths(capsys, monkeypatch):
    orders, build_matrix_M = [], cli.build_matrix_M

    def build(*params):
        matrix = build_matrix_M(*params)
        orders.append(len(matrix.entries))
        return matrix

    monkeypatch.setattr(cli, "build_matrix_M", build)
    params = ("48", "21", "35", "28", "3", "32")
    code, out, err = run(capsys, "count", *params, "--json")
    assert code == EXIT_OK
    assert orders == [23, 23]  # min(a, b, c) + 2, not a + 2 = 50
    expected = str(count_theorem1(tuple(map(int, params))))
    assert [r["value"] for r in json.loads(out)["results"]] == [expected] * 3
    orders.clear()
    code, out, err = run(capsys, "propp", "2", "--json")
    assert code == EXIT_OK
    assert orders == [6]  # a = b = c = 4
    expected = str(count_theorem1((4, 4, 4, 3, 3, 3)))
    assert [r["value"] for r in json.loads(out)["results"]] == [expected] * 3


def test_unexpected_exception_is_exit_4(capsys, monkeypatch):
    def broken(p, budget):
        raise ZeroDivisionError("planted\nsecond line")

    monkeypatch.setitem(cli.METHODS, "det", broken)
    code, out, err = run(capsys, "count", "1", "1", "1", "1", "1", "1")
    assert code == EXIT_INTERNAL
    assert err == ("error: internal error in count: det at (1, 1, 1, 1, 1, 1): "
                   "ZeroDivisionError: planted\n")


def test_verify_names_the_method_and_tuple_that_raised(capsys, monkeypatch):
    det = cli.METHODS["det"]

    def broken(p, budget):
        if tuple(p) == (1, 1, 0, 2, 1, 1):
            raise ZeroDivisionError("planted\nsecond line")
        return det(p, budget)

    monkeypatch.setitem(cli.METHODS, "det", broken)
    code, out, err = run(capsys, "verify", "--max-a", "1", "--max-b", "1",
                         "--max-c", "1", "--skip-brute")
    assert code == EXIT_INTERNAL
    assert err == ("error: internal error in verify: det at (1, 1, 0, 2, 1, 1): "
                   "ZeroDivisionError: planted\n")


def test_main_keeps_no_state_between_calls(capsys):
    argv = ["count", "1", "1", "1", "1", "1", "1", "--methods", "brute"]
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == EXIT_BUDGET
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert "35" in out

def test_count_runs_a_repeated_method_once_per_mention(capsys):
    code, out, err = run(capsys, "count", "1", "1", "1", "1", "1", "1",
                         "--methods", "formula,formula", "--json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert [(r["method"], r["value"]) for r in results] == [
        ("formula", "35"), ("formula", "35")]


def test_each_count_is_converted_to_decimal_once(capsys, monkeypatch):
    calls = []
    decimal = cli._decimal
    monkeypatch.setattr(cli, "_decimal", lambda value: calls.append(value)
                        or decimal(value))
    for extra in ((), ("--json",)):
        calls.clear()
        code, out, err = run(capsys, "count", "1", "1", "1", "1", "1", "1",
                             "--methods", "formula,det", *extra)
        assert code == EXIT_OK
        assert calls == [35, 35], extra


def test_report_agreement_logic():
    report = RunReport("count", {"a": 0})
    report.results.append(MethodResult("formula", 5, 0.0))
    report.results.append(MethodResult("det", 5, 0.0))
    report.results.append(MethodResult("brute", None, 0.0, "skipped"))
    assert report.agree
    report.results.append(MethodResult("brute-pp", 6, 0.0))
    assert not report.agree


# sha256 of each output with its times masked: counts, notes, skips and
# failures, in text and JSON, stay byte for byte
PINNED_OUTPUTS = {
    "verify --max-a 1 --max-b 1 --max-c 1":
        "e50b094736ec1bced0ffc9ce0dfd7309db4549ea00a4f6f67e725c336505403c",
    "verify --max-a 1 --max-b 1 --max-c 1 --json":
        "13e31bb588d93df614253611fe7e247d1147852220a8210775fc001a3c19af8d",
    "verify --max-a 1 --max-b 1 --max-c 1 --budget 60":
        "0fe5fbb1b15ead81e6e24f4f0d7214a90be25b900b5548dbe37e6630f3606247",
    "verify --max-a 1 --max-b 1 --max-c 1 --budget 60 --json":
        "89639748cd53bb0d03614387307526b7872059ad3e666c3185598edad312ee7a",
    "verify --skip-brute --json":
        "1856c0bba05ef9adad4efdb4603db29029715139748365ca0ec181dbc228b794",
    "identities --bound 1 --trials 10":
        "f27c7045c51d24ab201b18d13a977407b8cdee52acdc00d57e95c7a4aa2c3a74",
    "identities --bound 1 --trials 10 --json":
        "b2883d2d2ee498e479e9e02a3059d09897a7376cc20e7e51902cc9f1e60b638c",
    "identities":
        "ecc4fb5e31872489606dec5997e932be2503c552ebc988c1031a66b772d15d19",
    "propp 1":
        "93a5dee4864390814fb32a702c51d7b4bb3b79fb915a11d3a2e4d9f1f40d0093",
    "propp 2 --json":
        "bd6f6eebab64fe781558b83a8da6cca9e8027813aeda2ecb674a5d3ab67a9edb",
    "count 2 2 2 1 1 1 --methods formula,brute --budget 10 --json":
        "2b66257453e90328781610ea31e4deab85eafb07734cf10bb75eb1962a8b6187",
    "count 2 2 2 1 1 1 --methods formula,brute --budget 10":
        "cc6a89961067091140b4512fc8af4138d6296847c36b0847335089df1e369561",
    "count 1 1 1 1 1 1 --methods formula,det,det-condense,brute,brute-pp":
        "0783ea323092ae950f73790a04e325d2da49d3bab1bef5e8c138e5d9a7b42911",
    "count 1 1 1 1 1 1 --methods formula,formula --json":
        "fdfb74b1bce62e0548f2e877cc6950c89eae3f64323604f8502b39aa460bbdb2",
    "count 2 2 2 1 1 1 --methods brute,formula,brute --budget 10":
        "2176cab3b17db749bcbe12994ad2ccecf7f03d773a7d5b08deb7d57305b82e07",
}


@pytest.mark.parametrize("argv", PINNED_OUTPUTS)
def test_output_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == EXIT_OK and err == ""
    out = re.sub(r"\(\d+\.\d+s\)", "(…s)", out)
    out = re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[argv], out
