"""The benchmark tracer's targets still name live package functions.

perfbench/tracer.py wraps functions by module and attribute name; a rename
in the package would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize(
    "module, attr", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS]
)
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_resolving_every_public_name_loads_every_traced_module():
    """The tracer's install skips, without an error, every target whose
    module is not yet loaded.  `import spirochain` loads no module; the
    benchmark worker installs the tracer only after its untraced half,
    which has read the package's public names that the traced half calls,
    importing spirochain.cli itself only for the workloads that run the
    CLI.  Reading every public name must load every traced module."""
    script = ("import sys, spirochain; [getattr(spirochain, name) for name in "
              "spirochain.__all__]; print(' '.join(sorted(sys.modules)))")
    proc = run_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr
    traced = {module for _, module, _, _ in TARGETS} - {"spirochain.cli"}
    assert traced <= set(proc.stdout.split())
