"""End-to-end command-line behavior: formats, determinism, exit codes."""

import ast
import json
import math
import os
import random

import pytest

from meanmeasure import (EmptySet, MeanReport, UnknownMeasure, build, normalize,
                         ordinary_mean, verify)
from meanmeasure.cli import _fmt, main
from meanmeasure.verify import _disjoint_sample, run_suites


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_mean_command_json(capsys):
    code, out, _ = run(capsys, "mean", "--measure", "geometric",
                       "--set", "[1,4]")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "mass", "moment", "err"}
    assert payload["value"] == pytest.approx(2.0, rel=1e-12)
    assert payload["mass"] == pytest.approx(0.06766764161830635, rel=1e-12)


def test_mean_command_17_digit_floats(capsys):
    _, out, _ = run(capsys, "mean", "--measure", "geometric", "--set", "[1,4]")
    assert "0.067667641618306351" in out  # %.17g of the mass


def test_counterexample_set_expression(capsys):
    code, out, _ = run(capsys, "mean", "--measure", "geometric",
                       "--set", "[1, e^2] U [e^4, e^8]")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(65.3113736990956,
                                                     rel=1e-9)


def test_sweep_csv_format(capsys):
    code, out, _ = run(capsys, "sweep", "--measure", "geometric",
                       "--set", "[1,2]", "--shifts", "100,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,mean,avg,abs_diff,ratio_bound"
    assert len(lines) == 3
    row0 = lines[1].split(",")
    row1 = lines[2].split(",")
    assert float(row0[0]) == 0.0 and float(row1[0]) == 100.0  # sorted
    assert float(row0[3]) == pytest.approx(0.08578643762690485, rel=1e-6)
    assert float(row1[3]) == pytest.approx(0.001231534564908543, rel=1e-4)
    assert "\r" not in out


def test_compare_certified_exit_zero(capsys):
    code, out, _ = run(capsys, "compare", "--mu", "geometric",
                       "--nu", "lebesgue", "--window", "0.1,100")
    assert code == 0
    assert json.loads(out)["status"] == "certified"


def test_compare_refuted_exit_one(capsys):
    code, out, _ = run(capsys, "compare", "--mu", "lebesgue",
                       "--nu", "geometric", "--window", "0.1,100")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "refuted"
    assert payload["witness"] is not None


@pytest.mark.parametrize("counts", [("-5", "-7"), ("-1", "500"), ("200", "-1")])
def test_compare_rejects_negative_counts(capsys, counts):
    code, out, err = run(capsys, "compare", "--mu", "geometric",
                         "--nu", "lebesgue", "--window", "0.1,100",
                         "--probes", counts[0], "--random", counts[1])
    assert code == 2 and out == ""
    assert "non-negative" in err


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "mean", "--measure", "geometric",
                       "--set", "[2,1]")
    assert code == 2
    assert "lo < hi" in err
    code, _, err = run(capsys, "mean", "--measure", "geometric",
                       "--set", "[1,")
    assert code == 2
    assert "offset" in err


def test_numeric_error_exit_three(capsys):
    code, _, err = run(capsys, "mean", "--measure", "geometric",
                       "--set", "[-1,2]")
    assert code == 3
    assert "domain" in err.lower()


@pytest.mark.parametrize("argv", [
    ("mean", "--measure", "harmonic", "--set", "[1e-200,1e-100]"),
    ("construct", "--mean", "arithmetic", "--window", "1e-300,1e300"),
    # a ** p of the power mean overflows while the mean is probed
    ("construct", "--mean", "power:-1e6"),
])
def test_overflow_is_a_numeric_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure:") and "overflows" in err


def test_sweep_shift_that_rounds_the_set_away_is_named(capsys):
    # [1, 2] + 1e308 rounds to the empty interval [1e308, 1e308]
    code, out, err = run(capsys, "sweep", "--measure", "geometric",
                         "--set", "[1,2]", "--shifts", "0,1e308")
    assert (code, out) == (3, "")
    assert err == ("numeric failure: shift 1e+308 rounds the set to nothing "
                   "in double precision\n")


def test_sweep_shift_that_merges_intervals_is_named(capsys):
    # [2.5, 2.7] + 1e16 rounds into [1, 2] + 1e16: one interval, not H + x
    code, out, err = run(capsys, "sweep", "--measure", "lebesgue",
                         "--set", "[1,2] U [2.5,2.7]", "--shifts", "0,1e16")
    assert (code, out) == (3, "")
    assert err == ("numeric failure: shift 1e+16 rounds the set to 1 of its 2 "
                   "intervals in double precision\n")


@pytest.mark.parametrize("shifts", [",", "1,x"])
def test_bad_shift_lists_are_usage_errors(capsys, shifts):
    code, out, err = run(capsys, "sweep", "--measure", "geometric",
                         "--set", "[1,2]", "--shifts", shifts)
    assert (code, out) == (2, "")
    assert "shift list" in err


def test_fmt_spells_out_non_finite_values():
    assert [_fmt(v) for v in (math.nan, math.inf, -math.inf, 0.1)] == \
        ["NaN", "Infinity", "-Infinity", "0.10000000000000001"]


def test_unknown_measure_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["mean", "--measure", "cauchy", "--set", "[1,2]"])
    assert exc_info.value.code == 2


def test_out_file_atomic(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "mean", "--measure", "geometric",
                       "--set", "[1,4]", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["value"] == pytest.approx(2.0, rel=1e-12)
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".meanmeasure")]


def test_no_partial_file_on_failure(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "sweep", "--measure", "geometric",
                     "--set", "[1,2]", "--shifts", "0,-5", "--out", str(target))
    assert code == 3
    assert not target.exists()


@pytest.mark.parametrize("command", [
    ["mean", "--measure", "geometric", "--set", "[1,2]"],
    ["verify", "--suites", "internality", "--cases", "2"],
    ["construct", "--mean", "geometric"],
    ["compare", "--mu", "geometric", "--nu", "lebesgue", "--window", "0.1,100"],
    ["sweep", "--measure", "geometric", "--set", "[1,2]", "--shifts", "0"],
], ids=lambda c: c[0])
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, command):
    # a missing directory fails before a temporary file exists; a directory
    # as the target fails after one was written next to it
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "x.json", tmp_path / "taken"):
        code, _, err = run(capsys, *command, "--out", str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {str(target)!r}: ")
        assert err.count("\n") == 1
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".meanmeasure")]


@pytest.mark.parametrize("command", [
    ["verify"],
    ["construct", "--mean", "geometric"],
], ids=lambda c: c[0])
def test_unwritable_out_path_fails_before_the_work(tmp_path, capsys,
                                                   monkeypatch, command):
    from meanmeasure import construct

    def never(*args, **kwargs):
        raise AssertionError("ran the work before checking --out")

    monkeypatch.setattr(verify, "run_suites", never)
    monkeypatch.setattr(construct, "build", never)
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "x.json", tmp_path / "taken"):
        code, out, err = run(capsys, *command, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {str(target)!r}: ")
        assert err.count("\n") == 1
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".meanmeasure")]


def test_construct_command(capsys):
    code, out, _ = run(capsys, "construct", "--mean", "geometric",
                       "--window", "0.25,64")
    assert code == 0
    payload = json.loads(out)
    assert payload["round_trip_max_rel_err"] <= 1e-6
    assert payload["left_scale"] == pytest.approx(0.5, rel=1e-8)
    assert payload["x0"] == 2.0


def test_construct_harmonic_readme_window(capsys):
    # README's example; the top of the window is the hardest part to tabulate
    code, out, err = run(capsys, "construct", "--mean", "harmonic",
                         "--window", "0.25,64")
    assert code == 0, err
    assert json.loads(out)["round_trip_max_rel_err"] <= 1e-6


def test_construct_reports_the_library_build(capsys):
    code, out, err = run(capsys, "construct", "--mean", "harmonic",
                         "--window", "0.25,64")
    assert code == 0, err
    payload = json.loads(out)
    cm = build(ordinary_mean("harmonic"), (0.25, 64.0)).construction
    assert payload["round_trip_max_rel_err"] == cm.round_trip_max_rel_err
    assert payload["grid_points"] == cm.nodes == 66


def test_sweep_out_file_matches_stdout(tmp_path, capsys):
    args = ("sweep", "--measure", "geometric", "--set", "[1,2]",
            "--shifts", "0,10")
    _, direct, _ = run(capsys, *args)
    target = tmp_path / "rows.csv"
    code, piped, _ = run(capsys, *args, "--out", str(target))
    assert code == 0 and piped == ""
    assert target.read_text() == direct


@pytest.mark.parametrize("command", [
    ["mean", "--measure", "geometric", "--set", "[1, e^2] U [e^4, e^8]"],
    ["construct", "--mean", "harmonic", "--window", "0.5,8"],
    ["compare", "--mu", "geometric", "--nu", "lebesgue", "--window", "0.1,100",
     "--probes", "20", "--random", "20"],
], ids=lambda c: c[0])
def test_out_file_matches_stdout(tmp_path, capsys, command):
    code, direct, _ = run(capsys, *command)
    target = tmp_path / "report.json"
    assert run(capsys, *command, "--out", str(target)) == (code, "", "")
    assert target.read_text() == direct


def test_construct_rejects_non_generated_mean(capsys):
    code, _, err = run(capsys, "construct", "--mean", "power:3",
                       "--window", "0.25,64")
    assert code == 3
    assert "no measure generates" in err


def test_verify_command_small(capsys):
    code, out, _ = run(capsys, "verify", "--suites",
                       "internality,weighted-decomposition", "--cases", "25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "internality: PASS (25 cases)"
    assert lines[1] == "weighted-decomposition: PASS (25 cases)"


def test_verify_failure_prints_witnesses_and_out_writes_them(tmp_path, capsys,
                                                             monkeypatch):
    # a mean past the set's supremum fails internality on every case
    monkeypatch.setattr(verify, "mean", lambda spec, H: MeanReport(
        H.supremum() + 1.0, 1.0, 1.0, 0.0))
    target = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "--suites",
                       "internality,weighted-decomposition", "--cases", "2",
                       "--out", str(target))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "internality: FAIL (2 cases)"
    assert lines[3] == "weighted-decomposition: PASS (2 cases)"
    witnesses = [ast.literal_eval(line.removeprefix("  witness: "))
                 for line in lines[1:3]]
    for w in witnesses:
        assert w["mean"] == w["set"][-1][1] + 1.0
    payload = json.loads(target.read_text())
    assert payload == [
        {"suite": "internality", "cases": 2, "passed": False,
         "witnesses": witnesses},
        {"suite": "weighted-decomposition", "cases": 2, "passed": True,
         "witnesses": []},
    ]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suites", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_run_suites_rejects_unknown_suite():
    with pytest.raises(UnknownMeasure, match="unknown suite 'nonsense'"):
        run_suites(["internality", "nonsense"], cases=1)


def test_disjoint_sample_raises_a_typed_error():
    window = (0.1, 100.0)
    with pytest.raises(EmptySet, match="disjoint"):
        _disjoint_sample(random.Random(0), window, normalize([window]))


@pytest.mark.parametrize("command", [
    ("verify",),
    ("compare", "--mu", "geometric", "--nu", "lebesgue", "--window", "0.1,100"),
])
def test_negative_seed_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, *command, "--seed", "-1")
    assert code == 2 and out == "" and "seed" in err


@pytest.mark.parametrize("suites", [",", ""])
def test_verify_needs_a_suite(capsys, suites):
    code, out, err = run(capsys, "verify", f"--suites={suites}")
    assert code == 2 and out == "" and "no suite" in err


def test_verify_rejects_non_positive_cases(capsys):
    for cases in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--cases", cases,
                             "--suites", "internality")
        assert code == 2 and out == "" and "--cases" in err


@pytest.mark.parametrize("command", [
    ("construct", "--mean", "geometric"),
    ("compare", "--mu", "geometric", "--nu", "lebesgue"),
])
@pytest.mark.parametrize("window", ["a,b", "1,x", "0.25,sixty-four",
                                    "0.25,inf", "-inf,1"])
def test_window_typos_are_usage_errors(capsys, command, window):
    # one token, so argparse takes "-inf,1" as a value, not an option
    code, out, err = run(capsys, *command, f"--window={window}")
    assert code == 2 and out == ""
    assert err.startswith("error: window")


def test_compare_on_a_window_too_wide_names_the_window(capsys):
    code, out, err = run(capsys, "compare", "--mu", "lebesgue",
                         "--nu", "lebesgue", "--window=-1e308,1e308")
    assert code == 2 and out == ""
    assert err == "error: window needs a finite width, got (-1e+308, 1e+308)\n"


def test_sweep_determinism(capsys):
    args = ("sweep", "--measure", "geometric", "--set", "[1,2] U [3,4]",
            "--shifts", "0,1,10")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_mean_exponential_large_window(capsys):
    code, out, _ = run(capsys, "mean", "--measure", "exponential",
                       "--set", "[0, 10]")
    assert code == 0
    v = json.loads(out)["value"]
    # oracle: (10 e^10 - (e^10 - 1)) / (e^10 - 1)
    want = (10.0 * math.exp(10.0) - (math.exp(10.0) - 1.0)) / (math.exp(10.0) - 1.0)
    assert v == pytest.approx(want, rel=1e-12)
