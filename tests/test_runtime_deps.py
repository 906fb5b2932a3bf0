"""The package runs without scipy, which only the tests use as an oracle; its
one count check and its scalar model run without numpy, and so do the CLI's
analyze, compare and compute --links; distribution runs without the chain
and graph modules; and the package's modules import one way."""

import json
from pathlib import Path

import pytest

from conftest import run_fresh
from test_cli_golden import ENTRIES

# Prepended to the scripts below: from here on, importing a module named in
# argv[1] (comma-separated), or a submodule of one, fails.  `loaded()` lists
# the refused modules that are in sys.modules all the same.
REFUSE = """
import sys
REFUSED = tuple(sys.argv[1].split(","))

def refused(name):
    return any(name == module or name.startswith(module + ".") for module in REFUSED)

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if refused(name):
            raise ModuleNotFoundError(f"import of {name} refused")
        return None

def loaded():
    return sorted(filter(refused, sys.modules))

sys.meta_path.insert(0, Refuse())
"""

# Imports the count check and the scalar model through the package.
ERRORS_SCRIPT = REFUSE + """
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
print(loaded())
"""


def test_count_check_runs_without_numpy():
    proc = run_fresh("-c", ERRORS_SCRIPT, "numpy")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr


# Records golden CLI cases (argv[3]) with test_cli_golden's own recorder,
# imported from the tests directory (argv[2]).
GOLDEN_SCRIPT = REFUSE + """
import json, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[2])
from test_cli_golden import _record

records = []
for argv in json.loads(sys.argv[3]):
    with tempfile.TemporaryDirectory() as tmp:
        records.append(_record(argv, Path(tmp)))
print(json.dumps({"records": records, "loaded": loaded()}))
"""


def _scalar(argv):
    return argv[0] in ("analyze", "compare") or argv[0] == "compute" and "--n" not in argv


@pytest.mark.parametrize("refused, replays, least", [
    ("scipy", lambda argv: True, 51),
    ("numpy", _scalar, 21),
    ("spirochain.chain,spirochain.graph", lambda argv: argv[0] == "distribution", 6),
], ids=["scipy", "numpy", "chain-and-graph"])
def test_golden_entries_replay_under_import_refusals(refused, replays, least):
    cases = [entry for entry in ENTRIES if replays(entry["argv"])]
    assert len(cases) >= least
    proc = run_fresh("-c", GOLDEN_SCRIPT, refused, str(Path(__file__).parent),
                     json.dumps([entry["argv"] for entry in cases]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"records": cases, "loaded": []}


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
