"""End-to-end command-line behavior: formats, determinism, exit codes."""

import json
import math
import os
import random

import pytest

from meanmeasure import EmptySet, UnknownMeasure, build, normalize, ordinary_mean
from meanmeasure.cli import main
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
])
def test_overflow_is_a_numeric_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numeric failure:") and "overflows" in err


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
