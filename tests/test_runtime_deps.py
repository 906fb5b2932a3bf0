"""The package runs without scipy, which only the tests use as an oracle; its
one count check and its scalar model run without numpy, and so do the CLI's
analyze, compare and compute --links; and its modules import one way."""

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


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports this package."""
    src = str(Path(spirochain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)


# Prepended to the scripts below: from here on, any import of numpy fails.
REFUSE_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseNumpy())
"""

# Imports the count check and the scalar model through the package.
ERRORS_SCRIPT = REFUSE_NUMPY + """
from spirochain import _model, errors
assert errors.require_n(7) == 7
assert errors.require_n(0, minimum=0, name="bins") == 0
for bad in (1, True, 2.0, "3"):
    try:
        errors.require_n(bad)
    except errors.InvalidN:
        pass
    else:
        raise AssertionError(f"require_n accepted {bad!r}")
assert _model.replay("OMP").edge_profile() == _model.EdgeProfile(15, 14, 1)
assert _model.compare_expectations(10, _model.LinkProbabilities.uniform()).all_ordered
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""


def test_count_check_runs_without_numpy():
    proc = _run_fresh(ERRORS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr


# Replays golden CLI cases (see test_cli_golden.py) and prints, for each, the
# exit code and the sha256 of stdout and of each output file.
GOLDEN_SCRIPT = REFUSE_NUMPY + """
import contextlib, hashlib, io, json, pathlib, tempfile
from spirochain.cli import main

records = []
for argv in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        files = [hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
                 for flag, value in zip(argv, argv[1:]) if flag == "--out"
                 for path in [pathlib.Path(value)]]
        records.append([code, hashlib.sha256(stdout.getvalue().encode()).hexdigest(), files])
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
print(json.dumps({"records": records, "numpy": loaded}))
"""


def test_scalar_subcommands_match_the_golden_outputs_without_numpy():
    golden = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())
    cases = [entry for entry in golden if entry["argv"][0] in ("analyze", "compare")
             or entry["argv"][0] == "compute" and "--n" not in entry["argv"]]
    assert len(cases) >= 10 and any(entry["exit"] == 2 for entry in cases)
    proc = _run_fresh(GOLDEN_SCRIPT, json.dumps([entry["argv"] for entry in cases]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["numpy"] == []
    expected = [[entry["exit"], entry["stdout"], list(entry["files"].values())]
                for entry in cases]
    assert result["records"] == expected


# Imports the modules named in argv, in order, and prints the package's
# submodules then loaded.
IMPORT_SCRIPT = """
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("spirochain."))))
"""


def test_the_package_imports_one_way():
    def loaded(*modules):
        proc = _run_fresh(IMPORT_SCRIPT, *(f"spirochain.{name}" for name in modules))
        assert proc.returncode == 0, proc.stderr
        return {name.removeprefix("spirochain.") for name in json.loads(proc.stdout)}

    # The index layer needs only the errors, and the laws' array layer
    # needs neither the chain's arrays nor the graph.
    assert loaded("indices") == {"errors", "indices"}
    assert not loaded("analytics") & {"chain", "graph"}
    # The scalar model and the index layer import in either order.
    assert loaded("_model", "indices") == loaded("indices", "_model") == {
        "_model", "errors", "indices"}
