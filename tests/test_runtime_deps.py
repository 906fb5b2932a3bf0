"""The package runs without scipy, which only the tests use as an oracle; its
one count check and its scalar model run without numpy, and so do the CLI's
analyze, compare and compute --links; and its modules import one way."""

import json
from pathlib import Path

from conftest import run_fresh
from test_cli_golden import ENTRIES

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
    proc = run_fresh("-c", SCRIPT, json.dumps(SUBCOMMANDS))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(SUBCOMMANDS), "scipy": []}, proc.stderr


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
    proc = run_fresh("-c", ERRORS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr


# Records golden CLI cases (argv[2]) with test_cli_golden's own recorder,
# imported from the tests directory (argv[1]).
GOLDEN_SCRIPT = REFUSE_NUMPY + """
import json, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_cli_golden import _record

records = []
for argv in json.loads(sys.argv[2]):
    with tempfile.TemporaryDirectory() as tmp:
        records.append(_record(argv, Path(tmp)))
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
print(json.dumps({"records": records, "numpy": loaded}))
"""


def test_scalar_subcommands_match_the_golden_outputs_without_numpy():
    cases = [entry for entry in ENTRIES if entry["argv"][0] in ("analyze", "compare")
             or entry["argv"][0] == "compute" and "--n" not in entry["argv"]]
    assert len(cases) >= 10 and any(entry["exit"] == 2 for entry in cases)
    proc = run_fresh("-c", GOLDEN_SCRIPT, str(Path(__file__).parent),
                     json.dumps([entry["argv"] for entry in cases]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"records": cases, "numpy": []}


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
        proc = run_fresh("-c", IMPORT_SCRIPT, *(f"spirochain.{name}" for name in modules))
        assert proc.returncode == 0, proc.stderr
        return {name.removeprefix("spirochain.") for name in json.loads(proc.stdout)}

    # The index layer needs only the errors, and the laws' array layer
    # needs neither the chain's arrays nor the graph.
    assert loaded("indices") == {"errors", "indices"}
    assert not loaded("analytics") & {"chain", "graph"}
    # The scalar model and the index layer import in either order.
    assert loaded("_model", "indices") == loaded("indices", "_model") == {
        "_model", "errors", "indices"}
