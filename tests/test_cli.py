import json
import sys

from hexcount.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    RunReport,
    MethodResult,
    main,
    run_identities,
    run_verify,
)
from hexcount.closedform import count_theorem1


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
    monkeypatch.setenv("HEXCOUNT_BUDGET", "abc")
    code, out, err = run(
        capsys, "count", "1", "1", "1", "1", "1", "1", "--methods", "brute"
    )
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert "HEXCOUNT_BUDGET" in err


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


def test_count_budget_exhaustion_is_exit_3(capsys):
    code, out, err = run(
        capsys, "count", "2", "2", "2", "1", "1", "1",
        "--methods", "brute", "--budget", "10",
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


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


def test_verify_harness_catches_planted_fault():
    planted = (1, 1, 0, 2, 1, 1)

    def fault(params, value):
        return value + 1 if params.astuple() == planted else value

    outcome = run_verify(1, 1, 1, include_brute=False, fault=fault)
    assert not outcome.ok
    assert len(outcome.disagreements) == 1
    assert tuple(outcome.disagreements[0]["params"]) == planted


def test_verify_harness_catches_fault_against_brute():
    def fault(params, value):
        return value * 2 if params.astuple() == (0, 0, 0, 1, 1, 1) else value

    outcome = run_verify(0, 0, 0, include_brute=True, fault=fault)
    assert not outcome.ok
    values = outcome.disagreements[0]["values"]
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


def test_render_index_out_of_range(tmp_path, capsys):
    code, out, err = run(
        capsys, "render", "0", "0", "0", "1", "1", "1",
        "--out", str(tmp_path / "x.svg"), "--index", "5",
    )
    assert code == EXIT_USAGE
    assert "only 1 tilings exist" in err



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


def test_main_keeps_no_state_between_calls(capsys):
    argv = ["count", "1", "1", "1", "1", "1", "1", "--methods", "brute"]
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == EXIT_BUDGET
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert "35" in out

def test_report_agreement_logic():
    report = RunReport("count", {"a": 0})
    report.results.append(MethodResult("formula", 5, 0.0))
    report.results.append(MethodResult("det", 5, 0.0))
    report.results.append(MethodResult("brute", None, 0.0, "skipped"))
    assert report.agree
    report.results.append(MethodResult("brute-pp", 6, 0.0))
    assert not report.agree
