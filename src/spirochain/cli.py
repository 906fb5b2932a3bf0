"""Command-line front door: generate, compute, analyze, distribution,
simulate and compare, all with machine-readable output.

`COMMANDS` is the one table of subcommands: for each, its help, its own
flags, its default format, the function that turns its payload into a CSV
table (None where it writes JSON only) and its handler.  `build_parser`
loops over that table.  After parsing, `_resolve` checks the shared inputs
once, in one order: --index and --a, then --n, then the probabilities.
Handlers only build a payload, and `_emit` renders and writes every output;
`generate`'s edge blocks are rendered while they are written.

Only the scalar model and the index registry load up front, so `analyze`,
`compare` and `compute --links` run without numpy.

Exit codes: 0 success, 2 validation failure, 3 degenerate variance (a
standardized view of a deterministic index was requested), 4 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

from ._model import (
    GENERATOR_ALGORITHM, SEED_MIX_ALGORITHM, LinkProbabilities, coefficients,
    compare_expectations, expected_value, replay, variance,
)
from .errors import (
    DegenerateVariance, InvalidProbabilities, MissingExponent, SpiroChainError, require_n,
)
from .indices import (
    REGISTRY_NAMES, VARIABLE_EXPONENT_NAMES, IndexKind, evaluate_from_profile,
    registry_lookup,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4

# argparse's own matcher (`^-\d+$|^-\d*\.\d+$` in 3.11) reads a value such
# as -1e-3 or -inf as a flag, so `--a -1e-3` would fail; this one takes them.
_NEGATIVE_NUMBER = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?)$", re.I)

# SampleSummary fields that the simulate payload names differently.
_SUMMARY_KEYS = {"minimum": "min", "maximum": "max"}


class UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _resolve(args: argparse.Namespace) -> None:
    """Check the inputs the subcommands share and store the resolved values
    on `args`: `spec` (where there is --index), `n`, `probs`."""
    if "index" in args:
        if args.a is not None and args.index not in VARIABLE_EXPONENT_NAMES:
            raise UsageError(f"--a only applies to: {', '.join(VARIABLE_EXPONENT_NAMES)}")
        try:
            args.spec = registry_lookup(args.index, args.a)
        except MissingExponent:
            raise UsageError(f"--a is required for --index {args.index}") from None
    if args.n is not None:  # optional for compute only
        args.n = require_n(args.n, name="--n")
    trio = (args.p_ortho, args.p_meta, args.p_para)
    if trio[1:] != (None, None) and None in trio:
        raise UsageError("give --p-ortho alone, all of --p-ortho/--p-meta/--p-para, or none")
    try:
        args.probs = (LinkProbabilities(*trio) if trio[1:] != (None, None)
                      else LinkProbabilities.uniform() if args.p_ortho is None
                      else LinkProbabilities.from_ortho(args.p_ortho))
    except InvalidProbabilities as exc:
        raise UsageError(f"--p-ortho/--p-meta/--p-para: {exc}") from None


def _echo(args: argparse.Namespace) -> dict:
    """The resolved inputs a payload repeats: index, --a when given, n, probabilities."""
    a = {} if args.a is None else {"a": args.a}
    return {"index": args.spec.name, **a, "n": args.n, **asdict(args.probs)}


def _csv_text(header: list[str], rows: list[list]) -> str:
    if any(isinstance(x, float) and not math.isfinite(x) for row in rows for x in row):
        raise ValueError("a non-finite value reached the CSV output")
    # No field holds a comma, a quote or a newline, so none needs quoting.
    return "".join([",".join(["" if x is None else str(x) for x in row]) + "\n"
                    for row in (header, *rows)])


def _emit(args: argparse.Namespace, payload, files) -> None:
    """Write each (path, flag, render) file whose path was given, then the
    payload (a dict, or JSON as an iterable of byte chunks) in the chosen
    format to --out or stdout.  Chunks are written as they come, so an
    error can arise after the first write: any exception removes the
    regular files this call opened (never one whose open failed), so a
    failed call leaves no partial file, though stdout may hold a prefix.
    An OSError becomes a UsageError naming the output; an unwritable
    stdout (a reader that has gone) also points stdout at os.devnull, so
    that nothing fails again at exit."""
    if isinstance(payload, dict):
        text = (json.dumps(payload, indent=2, allow_nan=False) + "\n" if args.format == "json"
                else _csv_text(*args.to_csv(payload)))
        payload = [text.encode()]
    outputs = [(path, flag, [render().encode()])
               for path, flag, render in files if path is not None]
    if args.out is not None:
        outputs.append((args.out, "--out", payload))
    opened = []
    try:
        for path, flag, chunks in outputs:
            try:
                with path.open("wb") as stream:
                    opened.append(path)
                    stream.writelines(chunks)
            except OSError as exc:
                raise UsageError(f"{flag}: cannot write {path}: {exc.strerror or exc}") from None
        if args.out is None:
            try:
                for chunk in payload:
                    sys.stdout.write(chunk.decode())
                sys.stdout.flush()
            except OSError as exc:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise UsageError(f"stdout: {exc.strerror or exc}") from None
    except BaseException:
        for path in opened:
            if path.is_file():  # never a device such as /dev/null
                path.unlink()
        raise


def _flat_table(payload: dict) -> tuple[list[str], list[list]]:
    """Key/value rows; a list value becomes one `key_i` row per item."""
    rows = []
    for key, value in payload.items():
        if isinstance(value, (list, tuple)):
            rows.extend([f"{key}_{i}", item] for i, item in enumerate(value))
        else:
            rows.append([key, value])
    return ["key", "value"], rows


def _rows_table(payload: dict) -> tuple[list[str], list[list]]:
    return list(payload["rows"][0]), [list(row.values()) for row in payload["rows"]]


def _compare_table(payload: dict) -> tuple[list[str], list[list]]:
    holds = ["", *(entry["holds"] for entry in payload["orderings"])]
    rows = [[*pair, ordered] for pair, ordered in zip(payload["expectations"].items(), holds)]
    return ["index", "expectation", "ordered_after_previous"], rows


def _histogram_csv(hist) -> str:
    edges = hist.edges.tolist()
    rows = list(zip(edges[:-1], edges[1:], hist.counts.tolist(), hist.densities().tolist()))
    return _csv_text(["bin_left", "bin_right", "count", "density"], rows)


def cmd_generate(args: argparse.Namespace):
    from .chain import _edges_json_blocks, generate
    chain = generate(args.n, args.probs, args.seed)
    # One line, as json.dumps writes it, with the long edge list put in as
    # the byte blocks the chain writes from its rings ("links" holds only O,
    # M and P, so the placeholder is the first match).
    head, _, tail = json.dumps({
        "n": chain.n, "links": chain.codes.decode(),
        "vertices": chain.vertex_profile().total, "edges": 0,
        "edge_profile": asdict(chain.edge_profile()),
        "rng": GENERATOR_ALGORITHM, "seed": args.seed,
    }, allow_nan=False).partition('"edges": 0')
    return itertools.chain([f'{head}"edges": '.encode()], _edges_json_blocks(chain),
                           [f"{tail}\n".encode()]), ()


def cmd_compute(args: argparse.Namespace):
    if (args.links is None) == (args.n is None):
        raise UsageError("give exactly one of --links or --n")
    if args.links is None:
        from .chain import generate
        chain = generate(args.n, args.probs, args.seed)
    else:
        try:
            chain = replay(args.links)
        except ValueError as exc:
            raise UsageError(f"--links: {exc}") from None
    edge_kind = args.spec.kind is IndexKind.EDGE
    profile = chain.edge_profile() if edge_kind else chain.vertex_profile()
    return {
        "index": args.spec.name,
        "n": chain.n,
        "value": evaluate_from_profile(args.spec, profile),
        "m44": chain.ortho_count,
    }, ()


def cmd_analyze(args: argparse.Namespace):
    c = coefficients(args.spec, args.probs)
    return {
        **_echo(args),
        "ti2": c.ti2,
        "alpha": [c.alpha_ortho, c.alpha_meta, c.alpha_para],
        "alpha_bar": c.alpha_bar,
        "beta": c.beta,
        "A": c.A,
        "B": c.B,
        "C": c.C,
        "mean": expected_value(args.spec, args.n, args.probs),
        "variance": variance(args.spec, args.n, args.probs),
        "deterministic": c.deterministic,
    }, ()


def cmd_distribution(args: argparse.Namespace):
    from .analytics import exact_distribution
    dist = exact_distribution(args.spec, args.n, args.probs)
    ks = [None] * dist.pmf.size if dist.ortho_counts is None else dist.ortho_counts.tolist()
    return {"rows": [
        {"k": k, "value": v, "probability": p}
        for k, v, p in zip(ks, dist.support.tolist(), dist.pmf.tolist())
    ]}, ()


def cmd_simulate(args: argparse.Namespace):
    from . import montecarlo
    require_n(args.reps, minimum=1, name="--reps")
    require_n(args.bins, minimum=1, name="--bins")
    normality = None
    if args.standardize:
        samples = montecarlo.standardized_sample(
            args.spec, args.n, args.probs, args.reps, args.seed)
        summary = montecarlo.summarize(samples)
        if args.reps >= 100:
            report = montecarlo.normality_check(samples)
            normality = {**asdict(report), "passed": report.passed}
    else:
        sim = montecarlo.simulate(args.spec, args.n, args.probs, args.reps, args.seed)
        samples, summary = sim.values, sim.summary
    payload = {
        **_echo(args),
        "reps": args.reps,
        "seed": args.seed,
        "rng": f"{GENERATOR_ALGORITHM}+{SEED_MIX_ALGORITHM}",
        "standardized": bool(args.standardize),
        "summary": {
            _SUMMARY_KEYS.get(key, key): value for key, value in asdict(summary).items()
        },
        "normality": normality,
    }
    # summarize refuses a non-finite sample, so the file texts need no
    # check of their own.
    return payload, (
        (args.samples_out, "--samples-out",
         lambda: "".join(f"{v!r}\n" for v in samples.tolist())),
        (args.histogram_out, "--histogram-out",
         lambda: _histogram_csv(montecarlo.histogram(samples, args.bins))),
    )


def cmd_compare(args: argparse.Namespace):
    report = compare_expectations(args.n, args.probs)
    return {
        "n": args.n,
        **asdict(args.probs),
        "expectations": dict(zip(report.names, report.expectations)),
        "orderings": [
            {"left": left, "right": right, "holds": holds}
            for left, right, holds in report.pairs()
        ],
        "all_ordered": report.all_ordered,
    }, ()


_INDEX_FLAGS = (
    ("--index", {"required": True, "choices": REGISTRY_NAMES, "metavar": "NAME",
                 "help": f"one of: {', '.join(REGISTRY_NAMES)}"}),
    ("--a", {"type": float, "help": "exponent, required for the variable-* indices"}),
)
_N = ("--n", {"type": int, "required": True})
_SEED = ("--seed", {"type": int, "default": 0})
_PROB_FLAGS = (
    ("--p-ortho", {"type": float,
                   "help": "probability of an ortho link (alone: remainder is split "
                           "equally between meta and para; default: uniform 1/3 each)"}),
    ("--p-meta", {"type": float, "help": "probability of a meta link"}),
    ("--p-para", {"type": float, "help": "probability of a para link"}),
)

# name: (help, flags before the probability flags, default format,
#        payload -> CSV (header, rows) or None for JSON only, handler)
COMMANDS = {
    "generate": (
        "grow one random chain and emit it as JSON",
        (("--n", {"type": int, "required": True, "help": "number of hexagons (>= 2)"}),
         _SEED),
        "json", None, cmd_generate,
    ),
    "compute": (
        "evaluate an index on one chain",
        (*_INDEX_FLAGS,
         ("--links", {"type": str, "help": 'link sequence over {O,M,P}, e.g. "OMPO" '
                                           '("" is the seed chain)'}),
         ("--n", {"type": int, "help": "grow a random chain instead"}),
         _SEED),
        "json", _flat_table, cmd_compute,
    ),
    "analyze": ("closed-form constants and moments", (*_INDEX_FLAGS, _N),
                "json", _flat_table, cmd_analyze),
    "distribution": ("exact value distribution", (*_INDEX_FLAGS, _N),
                     "csv", _rows_table, cmd_distribution),
    "simulate": (
        "Monte Carlo study of an index",
        (*_INDEX_FLAGS, _N, _SEED,
         ("--reps", {"type": int, "default": 5000}),
         ("--bins", {"type": int, "default": 40, "help": "histogram bin count"}),
         ("--standardize", {"action": "store_true",
                            "help": "center and scale samples by the closed-form "
                                    "moments (fails with exit code 3 for "
                                    "deterministic indices)"}),
         ("--samples-out", {"type": Path,
                            "help": "write the samples as CSV, one value per line"}),
         ("--histogram-out", {"type": Path, "help": "write a histogram CSV (bin_left, "
                                                    "bin_right, count, density)"})),
        "json", None, cmd_simulate,
    ),
    "compare": ("expected values of the five comparison indices", (_N,),
                "json", _compare_table, cmd_compare),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiro",
        description="Random spiro chains: generation, degree-based topological "
                    "indices, closed-form laws, and Monte Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, default_format, to_csv, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flag, options in (*flags, *_PROB_FLAGS):
            p.add_argument(flag, **options)
        p.add_argument("--out", type=Path, help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv") if to_csv else ("json",),
                       default=default_format,
                       help=f"output format (default: {default_format})")
        p.set_defaults(handler=handler, to_csv=to_csv)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        _emit(args, *args.handler(args))
        return EXIT_OK
    except DegenerateVariance as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (UsageError, SpiroChainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
