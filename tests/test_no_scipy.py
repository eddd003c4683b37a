"""The package needs no scipy: the demos and the CLI run with it blocked."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# block scipy, then run a script path or a module as ``__main__``
BLOCK_AND_RUN = (
    "import runpy, sys\n"
    "sys.modules['scipy'] = None\n"
    "target, sys.argv = sys.argv[1], sys.argv[1:]\n"
    "if target.endswith('.py'):\n"
    "    runpy.run_path(target, run_name='__main__')\n"
    "else:\n"
    "    runpy.run_module(target, run_name='__main__', alter_sys=True)\n"
)


def python(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_scipy(demo):
    p = python(BLOCK_AND_RUN, str(demo))
    assert p.returncode == 0, p.stderr


def test_cli_construct_runs_without_scipy():
    p = python(BLOCK_AND_RUN, "meanmeasure.cli", "construct", "--mean", "geometric")
    assert p.returncode == 0, p.stderr


def test_cli_import_loads_no_scipy():
    p = python("import sys, meanmeasure.cli\n"
               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"
