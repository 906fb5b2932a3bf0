"""The benchmark tracer's targets still name live package functions.

perfbench/tracer.py wraps functions by module and attribute name; a rename
in the package would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
