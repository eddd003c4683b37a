"""The package needs no scipy: the demos and the CLI run with it blocked.

Nor do the CLI's closed-form commands need numpy: importing the package and
the CLI loads neither numpy nor the construction module, and ``mean`` and
``sweep`` print the same bytes with numpy blocked.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_import_loads_neither_numpy_nor_construct():
    p = python("import sys, meanmeasure, meanmeasure.cli\n"
               "print('numpy' in sys.modules, 'meanmeasure.construct' in sys.modules)")
    assert p.returncode == 0, p.stderr
    assert p.stdout == "False False\n"


def test_construct_names_load_on_first_use():
    p = python("import sys, meanmeasure\n"
               "assert 'meanmeasure.construct' not in sys.modules\n"
               "assert all(getattr(meanmeasure, n) is not None"
               " for n in meanmeasure.__all__)\n"
               "from meanmeasure import *\n"
               "assert build is meanmeasure.build is meanmeasure.construct.build\n"
               "assert ConstructedMeasure is meanmeasure.construct.ConstructedMeasure\n")
    assert p.returncode == 0, p.stderr


# README's closed-form commands; the sweep writes rows.csv in the run's cwd
README_COMMANDS = [
    ("mean", "--measure", "geometric", "--set", "[1,4]"),
    ("mean", "--measure", "geometric", "--set", "[1, e^2] U [e^4, e^8]"),
    ("sweep", "--measure", "geometric", "--set", "[1,2]",
     "--shifts", "0,1,10,100", "--out", "rows.csv"),
]


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=["mean-interval", "mean-union", "sweep"])
def test_closed_form_commands_run_without_numpy(argv, tmp_path):
    outputs = []
    for blocked in ("numpy", "scipy"):  # nothing loads scipy: a plain run
        cwd = tmp_path / blocked
        cwd.mkdir()
        p = python(BLOCK_AND_RUN, blocked, "meanmeasure.cli", *argv, cwd=cwd)
        assert p.returncode == 0, p.stderr
        written = cwd / "rows.csv"
        outputs.append((p.stdout, written.read_bytes() if written.exists() else None))
    assert outputs[0] == outputs[1]
    assert outputs[0] != ("", None)
