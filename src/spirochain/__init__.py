"""Random spiro chains and their degree-based topological indices.

Chains grow by attaching hexagons at randomly selected ortho/meta/para
positions; the package evaluates vertex- and edge-functional indices on
them, derives the exact law of an index value (moments, distribution,
moment generating function, centered transform), and validates everything
by exhaustive enumeration and seeded Monte Carlo.
"""

# The public names, by the module that exports them; `__all__` lists them in
# this order.  A module is imported when one of its names (or the module
# itself) is first read from the package, so `import spirochain` loads none.
_EXPORTS = {
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
    "graph": (
        "EdgeProfile", "MolecularGraph", "VertexProfile", "edge_profile", "vertex_profile",
    ),
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

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

# The module of each public name; a submodule's name maps to itself.
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}


def __getattr__(name: str):
    """Import the module of a public name (or a submodule) on first use and
    bind the name here, so that later reads are plain attribute lookups."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .module import name`, spelt as the statement compiles; unlike
    # importlib.import_module it goes through the import that -X importtime logs.
    owner = __import__(module, globals(), None, (name,), 1)
    value = globals()[name] = owner if name == module else getattr(owner, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
