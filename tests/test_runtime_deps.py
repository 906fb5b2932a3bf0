"""The package runs without scipy, which only the tests use as an oracle, and
its one count check runs without numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import spirochain

SUBCOMMANDS = [
    ["analyze", "--index", "nirmala", "--n", "100", "--p-ortho", "0.3"],
    ["distribution", "--index", "randic", "--n", "50"],
    ["compare", "--n", "20"],
    ["compute", "--index", "sombor", "--links", "OMPO"],
    ["simulate", "--index", "nirmala", "--n", "200", "--reps", "200", "--standardize"],
    ["generate", "--n", "30", "--seed", "3"],
]

# Runs in a fresh interpreter in which any import of scipy fails.
SCRIPT = """
import contextlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from spirochain.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_runs_every_subcommand_without_scipy():
    src = str(Path(spirochain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(SUBCOMMANDS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(SUBCOMMANDS), "scipy": []}, proc.stderr


# Runs in a fresh interpreter in which any import of numpy fails, and loads
# errors.py by its path, so the package __init__ (which imports numpy) is skipped.
ERRORS_SCRIPT = """
import importlib.util, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseNumpy())
spec = importlib.util.spec_from_file_location("spirochain_errors", sys.argv[1])
errors = importlib.util.module_from_spec(spec)
spec.loader.exec_module(errors)
assert errors.require_n(7) == 7
assert errors.require_n(0, minimum=0, name="bins") == 0
for bad in (1, True, 2.0, "3"):
    try:
        errors.require_n(bad)
    except errors.InvalidN:
        pass
    else:
        raise AssertionError(f"require_n accepted {bad!r}")
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""


def test_count_check_runs_without_numpy():
    errors_py = Path(spirochain.__file__).resolve().parent / "errors.py"
    proc = subprocess.run(
        [sys.executable, "-c", ERRORS_SCRIPT, str(errors_py)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr
