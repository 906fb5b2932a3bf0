"""Random spiro chains and their degree-based topological indices.

Chains grow by attaching hexagons at randomly selected ortho/meta/para
positions; the package evaluates vertex- and edge-functional indices on
them, derives the exact law of an index value (moments, distribution,
moment generating function, centered transform), and validates everything
by exhaustive enumeration and seeded Monte Carlo.
"""

# The public names, by the module that defines them.  The modules are
# imported eagerly, in this order (perfbench's tracer wraps only functions
# of modules already loaded), and `__all__` lists the names in this order.
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

# `from .module import names`, spelt as the statement compiles; unlike
# importlib.import_module it goes through the import that -X importtime logs.
for _module, _names in _EXPORTS.items():
    _owner = __import__(_module, globals(), None, _names, 1)
    globals().update({name: getattr(_owner, name) for name in _names})
del _module, _names, _owner

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]
