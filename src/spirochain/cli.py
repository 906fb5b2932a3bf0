"""Command-line front door: generate, compute, analyze, distribution,
simulate and compare, all with machine-readable output.

Exit codes: 0 success, 2 validation failure, 3 degenerate variance (a
standardized view of a deterministic index was requested), 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import analytics, montecarlo
from .chain import (
    GENERATOR_ALGORITHM,
    SEED_MIX_ALGORITHM,
    LinkProbabilities,
    generate,
    links_to_string,
    parse_links,
    replay,
    require_n,
)
from .errors import DegenerateVariance, MissingExponent, SpiroChainError
from .graph import edge_profile
from .indices import REGISTRY_NAMES, VARIABLE_EXPONENT_NAMES, evaluate, registry_lookup

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4

_PROB_SUM_TOL = 1e-9

_NON_FINITE = "the result is not finite: the index values overflow the double range"

# SampleSummary fields that the simulate payload names differently.
_SUMMARY_KEYS = {"minimum": "min", "maximum": "max"}


class UsageError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _add_prob_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p-ortho", type=float, default=None,
                        help="probability of an ortho link (alone: remainder is split "
                             "equally between meta and para; default: uniform 1/3 each)")
    parser.add_argument("--p-meta", type=float, default=None,
                        help="probability of a meta link")
    parser.add_argument("--p-para", type=float, default=None,
                        help="probability of a para link")


def _add_index_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--index", required=True, choices=REGISTRY_NAMES,
                        metavar="NAME", help=f"one of: {', '.join(REGISTRY_NAMES)}")
    parser.add_argument("--a", type=float, default=None,
                        help="exponent, required for the variable-* indices")


def _add_output_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument("--out", type=Path, default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default=default_format,
                        help=f"output format (default: {default_format})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiro",
        description="Random spiro chains: generation, degree-based topological "
                    "indices, closed-form laws, and Monte Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="grow one random chain and emit it as JSON")
    p.add_argument("--n", type=int, required=True, help="number of hexagons (>= 2)")
    p.add_argument("--seed", type=int, default=0)
    _add_prob_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("compute", help="evaluate an index on one chain")
    _add_index_flags(p)
    p.add_argument("--links", type=str, default=None,
                   help='link sequence over {O,M,P}, e.g. "OMPO" ("" is the seed chain)')
    p.add_argument("--n", type=int, default=None, help="grow a random chain instead")
    p.add_argument("--seed", type=int, default=0)
    _add_prob_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("analyze", help="closed-form constants and moments")
    _add_index_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_prob_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("distribution", help="exact value distribution")
    _add_index_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_prob_flags(p)
    _add_output_flags(p, "csv")
    p.set_defaults(handler=cmd_distribution)

    p = sub.add_parser("simulate", help="Monte Carlo study of an index")
    _add_index_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5000)
    p.add_argument("--bins", type=int, default=40, help="histogram bin count")
    p.add_argument("--standardize", action="store_true",
                   help="center and scale samples by the closed-form moments "
                        "(fails with exit code 3 for deterministic indices)")
    p.add_argument("--samples-out", type=Path, default=None,
                   help="write the samples as CSV, one value per line")
    p.add_argument("--histogram-out", type=Path, default=None,
                   help="write a histogram CSV (bin_left, bin_right, count, density)")
    _add_prob_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("compare", help="expected values of the five comparison indices")
    p.add_argument("--n", type=int, required=True)
    _add_prob_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(handler=cmd_compare)

    return parser


def _resolve_probs(args: argparse.Namespace) -> LinkProbabilities:
    trio = (args.p_ortho, args.p_meta, args.p_para)
    given = [p is not None for p in trio]
    if not any(given):
        return LinkProbabilities.uniform()
    if given == [True, False, False]:
        return LinkProbabilities.from_ortho(args.p_ortho)
    if not all(given):
        raise UsageError(
            "give --p-ortho alone, all of --p-ortho/--p-meta/--p-para, or none"
        )
    total = sum(trio)
    if abs(total - 1) > _PROB_SUM_TOL:
        raise UsageError(
            f"--p-ortho/--p-meta/--p-para must sum to 1, got {total!r}"
        )
    return LinkProbabilities(*(p / total for p in trio))


def _resolve_spec(args: argparse.Namespace):
    if args.a is not None and args.index not in VARIABLE_EXPONENT_NAMES:
        raise UsageError(f"--a only applies to: {', '.join(VARIABLE_EXPONENT_NAMES)}")
    try:
        return registry_lookup(args.index, args.a)
    except MissingExponent:
        raise UsageError(f"--a is required for --index {args.index}") from None


def _write(path: Path, text: str, flag: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"{flag}: cannot write {path}: {exc.strerror or exc}") from None


def _emit(text: str, out: Path | None, files=()) -> None:
    """Write the (path, text, flag) `files`, then `text` to `out` or stdout.

    All texts are rendered before the call, and a failed write removes the
    files this call already wrote, so a usage error leaves no partial output.
    """
    text = text if text.endswith("\n") else text + "\n"
    if out is not None:
        files = (*files, (out, text, "--out"))
    written = []
    try:
        for path, body, flag in files:
            _write(path, body, flag)
            written.append(path)
    except UsageError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    if out is None:
        print(text, end="")


def _json_text(payload: dict, indent: int | None = 2) -> str:
    try:
        return json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError:
        raise UsageError(_NON_FINITE) from None


def _emit_json(payload: dict, args: argparse.Namespace) -> None:
    _emit(_json_text(payload), args.out)


def _csv_text(header: list[str], rows: list[list]) -> str:
    if any(isinstance(x, float) and not math.isfinite(x) for row in rows for x in row):
        raise UsageError(_NON_FINITE)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _emit_flat(payload: dict, args: argparse.Namespace) -> None:
    """Flat key/value payload as JSON, or as key,value CSV rows."""
    if args.format == "json":
        _emit_json(payload, args)
        return
    rows = []
    for key, value in payload.items():
        if isinstance(value, (list, tuple)):
            rows.extend([f"{key}_{i}", item] for i, item in enumerate(value))
        else:
            rows.append([key, value])
    _emit(_csv_text(["key", "value"], rows), args.out)


def _prob_fields(probs: LinkProbabilities) -> dict:
    return {
        "p_ortho": probs.p_ortho,
        "p_meta": probs.p_meta,
        "p_para": probs.p_para,
    }


def cmd_generate(args: argparse.Namespace) -> None:
    n = require_n(args.n, name="--n")
    probs = _resolve_probs(args)
    if args.format != "json":
        raise UsageError("--format csv is not supported for generate")
    chain = generate(n, probs, args.seed)
    profile = edge_profile(chain.graph)
    # One line, as json.dumps writes it, with the long edge list spliced in
    # from the graph's own numpy writer.
    head = _json_text(
        {"n": chain.n, "links": links_to_string(chain.links),
         "vertices": chain.graph.vertex_count},
        indent=None,
    )
    tail = _json_text(
        {"edge_profile": {"m22": profile.m22, "m24": profile.m24, "m44": profile.m44},
         "rng": GENERATOR_ALGORITHM, "seed": args.seed},
        indent=None,
    )
    _emit(f'{head[:-1]}, "edges": {chain.graph.edges_json()}, {tail[1:]}', args.out)


def cmd_compute(args: argparse.Namespace) -> None:
    spec = _resolve_spec(args)
    if (args.links is None) == (args.n is None):
        raise UsageError("give exactly one of --links or --n")
    if args.links is not None:
        try:
            chain = replay(parse_links(args.links))
        except ValueError as exc:
            raise UsageError(f"--links: {exc}") from None
    else:
        chain = generate(require_n(args.n, name="--n"), _resolve_probs(args), args.seed)
    payload = {
        "index": spec.name,
        "n": chain.n,
        "value": evaluate(spec, chain.graph),
        "m44": edge_profile(chain.graph).m44,
    }
    _emit_flat(payload, args)


def cmd_analyze(args: argparse.Namespace) -> None:
    spec = _resolve_spec(args)
    n = require_n(args.n, name="--n")
    probs = _resolve_probs(args)
    c = analytics.coefficients(spec, probs)
    payload = {"index": spec.name}
    if args.a is not None:
        payload["a"] = args.a
    payload.update(
        {
            "n": n,
            **_prob_fields(probs),
            "ti2": c.ti2,
            "alpha": [c.alpha_ortho, c.alpha_meta, c.alpha_para],
            "alpha_bar": c.alpha_bar,
            "beta": c.beta,
            "A": c.A,
            "B": c.B,
            "C": c.C,
            "mean": analytics.expected_value(spec, n, probs),
            "variance": analytics.variance(spec, n, probs),
            "deterministic": c.deterministic,
        }
    )
    _emit_flat(payload, args)


def cmd_distribution(args: argparse.Namespace) -> None:
    spec = _resolve_spec(args)
    n = require_n(args.n, name="--n")
    probs = _resolve_probs(args)
    dist = analytics.exact_distribution(spec, n, probs)
    counts = dist.ortho_counts
    rows = [
        [("" if counts is None else int(counts[i])), float(v), float(p)]
        for i, (v, p) in enumerate(zip(dist.support, dist.pmf))
    ]
    if args.format == "csv":
        _emit(_csv_text(["k", "value", "probability"], rows), args.out)
    else:
        _emit_json(
            {
                "rows": [
                    {"k": (None if k == "" else k), "value": v, "probability": p}
                    for k, v, p in rows
                ]
            },
            args,
        )


def cmd_simulate(args: argparse.Namespace) -> None:
    spec = _resolve_spec(args)
    n = require_n(args.n, name="--n")
    probs = _resolve_probs(args)
    if args.format != "json":
        raise UsageError("--format csv is not supported for simulate")
    require_n(args.bins, minimum=1, name="--bins")
    normality = None
    if args.standardize:
        samples = montecarlo.standardized_sample(spec, n, probs, args.reps, args.seed)
        summary = montecarlo.summarize(samples)
        if args.reps >= 100:
            report = montecarlo.normality_check(samples)
            normality = {**asdict(report), "passed": report.passed}
    else:
        sim = montecarlo.simulate(spec, n, probs, args.reps, args.seed)
        samples = sim.values
        summary = sim.summary

    payload = {"index": spec.name}
    if args.a is not None:
        payload["a"] = args.a
    payload.update(
        {
            "n": n,
            **_prob_fields(probs),
            "reps": args.reps,
            "seed": args.seed,
            "rng": f"{GENERATOR_ALGORITHM}+{SEED_MIX_ALGORITHM}",
            "standardized": bool(args.standardize),
            "summary": {
                _SUMMARY_KEYS.get(key, key): value
                for key, value in asdict(summary).items()
            },
            "normality": normality,
        }
    )
    # Rendered first: the summary's min and max make it fail on any
    # non-finite sample, so the samples text needs no check of its own.
    text = _json_text(payload)
    files = []
    if args.samples_out is not None:
        files.append((args.samples_out, "".join(f"{v!r}\n" for v in samples.tolist()),
                      "--samples-out"))
    if args.histogram_out is not None:
        hist = montecarlo.histogram(samples, args.bins)
        density = hist.densities()
        rows = [
            [float(hist.edges[i]), float(hist.edges[i + 1]), int(hist.counts[i]),
             float(density[i])]
            for i in range(hist.counts.size)
        ]
        files.append((args.histogram_out,
                      _csv_text(["bin_left", "bin_right", "count", "density"], rows),
                      "--histogram-out"))
    _emit(text, args.out, files)


def cmd_compare(args: argparse.Namespace) -> None:
    n = require_n(args.n, name="--n")
    probs = _resolve_probs(args)
    report = analytics.compare_expectations(n, probs)
    if args.format == "csv":
        rows = []
        for i, (name, value) in enumerate(zip(report.names, report.expectations)):
            ordered = "" if i == 0 else report.holds[i - 1]
            rows.append([name, value, ordered])
        _emit(_csv_text(["index", "expectation", "ordered_after_previous"], rows),
              args.out)
        return
    _emit_json(
        {
            "n": n,
            **_prob_fields(probs),
            "expectations": dict(zip(report.names, report.expectations)),
            "orderings": [
                {"left": left, "right": right, "holds": holds}
                for left, right, holds in report.pairs()
            ],
            "all_ordered": report.all_ordered,
        },
        args,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateVariance as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SpiroChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
