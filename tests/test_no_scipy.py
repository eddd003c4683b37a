"""The package needs no scipy: the demos and the CLI run with it blocked.

Nor does it need numpy: importing the package and the CLI loads none, and
every command prints the same bytes with numpy blocked.  Importing the
package loads neither the synthesis nor the set parser nor the property
suites, and each command loads only the modules it uses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meanmeasure.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# block a module, then run a script path or a module as ``__main__``
BLOCK_AND_RUN = (
    "import runpy, sys\n"
    "sys.modules[sys.argv[1]] = None\n"
    "target, sys.argv = sys.argv[2], sys.argv[2:]\n"
    "if target.endswith('.py'):\n"
    "    runpy.run_path(target, run_name='__main__')\n"
    "else:\n"
    "    runpy.run_module(target, run_name='__main__', alter_sys=True)\n"
)


def python(code, *argv, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_scipy(demo):
    p = python(BLOCK_AND_RUN, "scipy", str(demo))
    assert p.returncode == 0, p.stderr


def test_cli_construct_runs_without_scipy():
    p = python(BLOCK_AND_RUN, "scipy", "meanmeasure.cli",
               "construct", "--mean", "geometric")
    assert p.returncode == 0, p.stderr


def test_cli_import_loads_no_scipy():
    p = python("import sys, meanmeasure.cli\n"
               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"


def test_import_loads_no_numpy():
    p = python("import sys, meanmeasure, meanmeasure.cli\n"
               "print('numpy' in sys.modules)")
    assert p.returncode == 0, p.stderr
    assert p.stdout == "False\n"


def test_cli_import_decorates_only_the_spec_dataclasses():
    # a dataclass costs its decorator at import and a slower __init__ for
    # every record; MeasureSpec stays one, as users derive copies with
    # dataclasses.replace
    p = python("import dataclasses, sys, meanmeasure.cli\n"
               "print(sorted({f'{o.__module__}.{o.__qualname__}'\n"
               "              for m in list(sys.modules)\n"
               "              if m.split('.')[0] == 'meanmeasure'\n"
               "              for o in vars(sys.modules[m]).values()\n"
               "              if isinstance(o, type) and dataclasses.is_dataclass(o)}))")
    assert p.returncode == 0, p.stderr
    assert p.stdout == ("['meanmeasure.measures.MeasureSpec', "
                        "'meanmeasure.measures._ScaledMeasure']\n")


# the package's modules loaded once the script before it has run
PRINT_LOADED = ("print(sorted(m.split('.')[1] for m in sys.modules"
                " if m.startswith('meanmeasure.')), file=sys.stderr)\n")


def test_import_loads_only_the_core_modules():
    p = python("import sys, meanmeasure\n" + PRINT_LOADED +
               "assert all(hasattr(meanmeasure, n) for n in meanmeasure.__all__)\n"
               "from meanmeasure import build, parse_set\n" + PRINT_LOADED)
    assert p.returncode == 0, p.stderr
    before, after = map(ast.literal_eval, p.stderr.splitlines())
    assert not {"construct", "setparse", "verify"} & set(before), before
    assert {"construct", "setparse"} <= set(after), after


# ``python -m meanmeasure.cli ARGS...``, in a process that lists the modules
# it loaded when it exits
RUN_CLI = ("import runpy, sys\n"
           "sys.argv[0] = 'meanmeasure'\n"
           "try:\n"
           "    runpy.run_module('meanmeasure.cli', run_name='__main__',"
           " alter_sys=True)\n"
           "finally:\n"
           "    " + PRINT_LOADED)


@pytest.mark.parametrize("argv, unused", [
    (("mean", "--measure", "geometric", "--set", "[1,4]"), {"construct", "verify"}),
    (("sweep", "--measure", "geometric", "--set", "[1,2]", "--shifts", "0,1"),
     {"construct", "verify"}),
    (("compare", "--mu", "geometric", "--nu", "lebesgue", "--window", "0.1,100"),
     {"construct", "setparse", "verify"}),
    (("construct", "--mean", "geometric"), {"setparse", "verify"}),
    (("verify", "--cases", "5"), {"construct", "setparse"}),
], ids=["mean", "sweep", "compare", "construct", "verify"])
def test_each_command_loads_only_its_modules(argv, unused):
    p = python(RUN_CLI, *argv)
    assert p.returncode == 0 and p.stdout, p.stderr
    loaded = set(ast.literal_eval(p.stderr.splitlines()[-1]))
    assert "measures" in loaded and not unused & loaded, loaded


# the benchmark's commands, verify shortened; the sweep writes rows.csv in
# the run's cwd
README_COMMANDS = [
    ("mean", "--measure", "geometric", "--set", "[1,4]"),
    ("mean", "--measure", "geometric", "--set", "[1, e^2] U [e^4, e^8]"),
    ("sweep", "--measure", "geometric", "--set", "[1,2]",
     "--shifts", "0,1,10,100", "--out", "rows.csv"),
    ("construct", "--mean", "harmonic", "--window", "0.25,64"),
    ("construct", "--mean", "geometric"),
    ("compare", "--mu", "geometric", "--nu", "lebesgue", "--window", "0.1,100"),
    ("verify", "--cases", "20"),
]


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=["mean-interval", "mean-union", "sweep",
                              "construct-harmonic", "construct-geometric",
                              "compare", "verify"])
def test_closed_form_commands_run_without_numpy(argv, tmp_path, monkeypatch,
                                                capsys):
    def written(cwd):
        path = cwd / "rows.csv"
        return path.read_bytes() if path.exists() else None

    blocked, plain = tmp_path / "numpy-blocked", tmp_path / "plain"
    blocked.mkdir()
    plain.mkdir()
    p = python(BLOCK_AND_RUN, "numpy", "meanmeasure.cli", *argv, cwd=blocked)
    assert p.returncode == 0, p.stderr
    monkeypatch.chdir(plain)  # the same command in this process is the reference
    assert main(list(argv)) == 0
    got = (p.stdout, written(blocked))
    assert got == (capsys.readouterr().out, written(plain))
    assert got != ("", None)
