"""The CLI's flags frozen: names, defaults, requiredness, choices, types, help.

Each row is (option strings, dest, default, required, choices, type name,
metavar, help) of one parser action, in the order the parser holds them.
"""

import argparse

from spirochain.cli import build_parser

INDEX_NAMES = (
    "first-zagreb", "second-zagreb", "forgotten", "inverse-degree", "randic",
    "sum-connectivity", "harmonic", "nirmala", "sombor", "variable-first-zagreb",
    "variable-sum-connectivity",
)
HELP = (("-h", "--help"), "help", "==SUPPRESS==", False, None, None, None,
        "show this help message and exit")
INDEX = [
    (("--index",), "index", None, True, INDEX_NAMES, None, "NAME",
     "one of: " + ", ".join(INDEX_NAMES)),
    (("--a",), "a", None, False, None, "float", None,
     "exponent, required for the variable-* indices"),
]
N = (("--n",), "n", None, True, None, "int", None, None)
SEED = (("--seed",), "seed", 0, False, None, "int", None, None)
PROBS = [
    (("--p-ortho",), "p_ortho", None, False, None, "float", None,
     "probability of an ortho link (alone: remainder is split equally between "
     "meta and para; default: uniform 1/3 each)"),
    (("--p-meta",), "p_meta", None, False, None, "float", None,
     "probability of a meta link"),
    (("--p-para",), "p_para", None, False, None, "float", None,
     "probability of a para link"),
]
OUT = (("--out",), "out", None, False, None, "Path", None, "output file (default: stdout)")


def _format(default, choices=("json", "csv")):
    return (("--format",), "format", default, False, choices, None, None,
            f"output format (default: {default})")


SURFACE = {
    "generate": [
        HELP,
        (("--n",), "n", None, True, None, "int", None, "number of hexagons (>= 2)"),
        SEED, *PROBS, OUT, _format("json", ("json",)),
    ],
    "compute": [
        HELP, *INDEX,
        (("--links",), "links", None, False, None, "str", None,
         'link sequence over {O,M,P}, e.g. "OMPO" ("" is the seed chain)'),
        (("--n",), "n", None, False, None, "int", None, "grow a random chain instead"),
        SEED, *PROBS, OUT, _format("json"),
    ],
    "analyze": [HELP, *INDEX, N, *PROBS, OUT, _format("json")],
    "distribution": [HELP, *INDEX, N, *PROBS, OUT, _format("csv")],
    "simulate": [
        HELP, *INDEX, N, SEED,
        (("--reps",), "reps", 5000, False, None, "int", None, None),
        (("--bins",), "bins", 40, False, None, "int", None, "histogram bin count"),
        (("--standardize",), "standardize", False, False, None, None, None,
         "center and scale samples by the closed-form moments (fails with exit "
         "code 3 for deterministic indices)"),
        (("--samples-out",), "samples_out", None, False, None, "Path", None,
         "write the samples as CSV, one value per line"),
        (("--histogram-out",), "histogram_out", None, False, None, "Path", None,
         "write a histogram CSV (bin_left, bin_right, count, density)"),
        *PROBS, OUT, _format("json", ("json",)),
    ],
    "compare": [HELP, N, *PROBS, OUT, _format("json")],
}

COMMAND_HELP = [
    ("generate", "grow one random chain and emit it as JSON"),
    ("compute", "evaluate an index on one chain"),
    ("analyze", "closed-form constants and moments"),
    ("distribution", "exact value distribution"),
    ("simulate", "Monte Carlo study of an index"),
    ("compare", "expected values of the five comparison indices"),
]


def _subcommands(parser=None):
    parser = parser or build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _row(action):
    kind = getattr(action.type, "__name__", action.type)
    return (tuple(action.option_strings), action.dest, action.default, action.required,
            action.choices, kind, action.metavar, action.help)


def test_subcommands_and_their_help():
    parser = build_parser()
    assert (parser.prog, parser.description) == (
        "spiro",
        "Random spiro chains: generation, degree-based topological indices, "
        "closed-form laws, and Monte Carlo studies.",
    )
    sub = _subcommands(parser)
    assert [(a.dest, a.help) for a in sub._choices_actions] == COMMAND_HELP
    assert sub.required


def test_every_flag_of_every_subcommand():
    sub = _subcommands()
    assert list(sub.choices) == list(SURFACE)
    for name, parser in sub.choices.items():
        assert [_row(a) for a in parser._actions] == SURFACE[name], name
