"""The package's export table: it holds exactly the pinned names, each is
listed once and bound to its module's object, and nothing else public
reaches the package."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import spirochain

SUBMODULES = ("analytics", "chain", "errors", "graph", "indices", "montecarlo")

# The public surface, frozen like the CLI's flags: a change to the surface
# edits this table on purpose.
SURFACE = {
    "analytics": (
        "COMPARISON_ORDER", "ChainCoefficients", "DiscreteDistribution",
        "ExpectationOrdering", "coefficients", "compare_expectations",
        "exact_distribution", "expected_value", "log_mgf", "martingale_transform",
        "mgf", "second_moment", "standardize", "variance",
    ),
    "chain": (
        "DEFAULT_MAX_ENUM_N", "GENERATOR_ALGORITHM", "LINK_ORDER", "SEED_MIX_ALGORITHM",
        "LinkProbabilities", "LinkType", "SpiroChain", "draw_link_indexes",
        "enumerate_all", "generate", "links_to_string", "parse_links", "replay",
        "replication_seed", "rng_from_seed", "splitmix64",
    ),
    "errors": (
        "DegenerateVariance", "EmptySample", "InvalidN", "InvalidProbabilities",
        "KindMismatch", "MissingExponent", "NTooLarge", "NonFiniteSample",
        "SampleTooSmall", "SpiroChainError", "UndefinedBase", "UnknownIndex",
        "UnsupportedDegree",
    ),
    "graph": ("EdgeProfile", "MolecularGraph", "VertexProfile", "edge_profile", "vertex_profile"),
    "indices": (
        "REGISTRY_NAMES", "VARIABLE_EXPONENT_NAMES", "IndexKind", "IndexSpec",
        "evaluate", "evaluate_from_profile", "registry_lookup",
    ),
    "montecarlo": (
        "HistogramData", "NormalityReport", "SampleSummary", "SimulationResult",
        "histogram", "martingale_residual_check", "normality_check", "simulate",
        "standardized_sample", "summarize",
    ),
}


def test_the_public_surface_is_pinned():
    assert spirochain._EXPORTS == SURFACE


def test_no_name_appears_twice_in_the_table():
    names = [name for names in spirochain._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    assert spirochain.__all__ == [*names, "__version__"]


def test_every_export_is_the_attribute_of_its_own_module():
    assert tuple(spirochain._EXPORTS) == SUBMODULES
    for module, names in spirochain._EXPORTS.items():
        owner = importlib.import_module(f"spirochain.{module}")
        for name in names:
            assert getattr(spirochain, name) is getattr(owner, name), f"{module}.{name}"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from spirochain import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(spirochain.__all__)


def _fresh(script: str) -> str:
    """stdout of `script` run in a fresh interpreter that imports this package."""
    src = str(Path(spirochain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_helper_leaks_into_the_package_namespace():
    # A fresh interpreter: importing spirochain.cli elsewhere binds `cli`.
    # The package binds a name on first read, so every name is read first.
    script = ("import spirochain as sc; before = dir(sc); [getattr(sc, name) for name in "
              "sc.__all__]; print(' '.join(sorted(vars(sc)))); print(' '.join(before)); "
              "print(' '.join(dir(sc)))")
    expected = set(spirochain.__all__) - {"__version__"} | set(SUBMODULES)
    for line in _fresh(script).splitlines():
        assert {name for name in line.split() if not name.startswith("_")} == expected


def test_bare_import_resolves_every_submodule():
    # perfbench's worker reads `sc.analytics` straight after `import spirochain`.
    script = ("import importlib, spirochain as sc; print(all(getattr(sc, m) is "
              f"importlib.import_module('spirochain.' + m) for m in {SUBMODULES!r}))")
    assert _fresh(script).split() == ["True"]
