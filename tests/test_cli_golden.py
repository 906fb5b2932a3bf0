"""CLI outputs frozen byte for byte (exit code, stdout, stderr and every file
written), and each one checked for what it means.

`cli_golden.json` is the one list of CLI cases.  It holds, for each command,
its argv (output paths under a `{tmp}` placeholder), the exit code, the
sha256 of stdout, the stderr text with paths under `{tmp}`, and the sha256
of each output file (null when the file must not exist).  Where argparse
exits, stderr is null: its usage text varies with the Python version and
COLUMNS, and test_cli_surface pins the parser.

Each entry is also checked for meaning, with its argv read here rather than
by the CLI's parser.  A command that exits 0 writes to stdout or --out, in
its format, what the library gives for the same inputs, and its
--samples-out and --histogram-out files hold the sample and its histogram.
A command that fails writes nothing, and stderr is one `error: ...` line
(unless argparse exited) that names a refused count by its flag.

Re-record it only when an output change is intended, or to add a case (append
`{"argv": [...]}` to the file first):

    PYTHONPATH=src python tests/test_cli_golden.py

That re-runs the argv of every entry in the file, in order, and checks what
each output means.  If every entry passes, it writes the file and prints the
argv of each entry that changed and the count of the rest; otherwise it
writes nothing, prints the argv of each entry that failed and exits 1.
"""

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

# The library is read through the package's attributes, which import a
# module on first use: the import-refusal replays in test_runtime_deps
# import this module, and its recorder, without numpy.
import spirochain as sc
from spirochain.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
ENTRIES = json.loads(GOLDEN.read_text())

_OUT_FLAGS = ("--out", "--samples-out", "--histogram-out")


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _run(argv: list[str], tmp: Path):
    """Run one command in process; return its exit code, stdout, stderr (None
    where argparse exits) and the text of each output file named in argv
    (None where it does not exist), keyed by the argv's value."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
            err = stderr.getvalue().replace(str(tmp), "{tmp}")
        except SystemExit as exc:  # argparse's exit: its stderr is not pinned
            code, err = exc.code, None
    files = {}
    for flag, value in zip(argv, argv[1:]):
        if flag in _OUT_FLAGS:
            path = Path(value.replace("{tmp}", str(tmp)))
            files[value] = path.read_text() if path.exists() else None
    return code, stdout.getvalue(), err, files


def _hashes(argv, code, out, err, files) -> dict:
    return {"argv": argv, "exit": code, "stdout": _sha256(out), "stderr": err,
            "files": {value: None if text is None else _sha256(text)
                      for value, text in files.items()}}


def _record(argv: list[str], tmp: Path) -> dict:
    """Run one command in process; return its exit code, stderr and output hashes."""
    return _hashes(argv, *_run(argv, tmp))


def generate_document(chain, seed):
    """`spiro generate` output built from to_dict() and json.dumps."""
    as_dict = chain.graph.to_dict()
    profile = sc.edge_profile(chain.graph)
    return json.dumps(
        {
            "n": chain.n,
            "links": sc.links_to_string(chain.links),
            "vertices": as_dict["vertices"],
            "edges": as_dict["edges"],
            "edge_profile": {"m22": profile.m22, "m24": profile.m24, "m44": profile.m44},
            "rng": "philox4x64-10",
            "seed": seed,
        },
        separators=None,
    ) + "\n"


def _flags(argv: list[str]) -> dict:
    """Each flag of argv with its value (after a space or an `=`);
    --standardize, the one switch, maps to True."""
    flags, args = {}, iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        flags[name] = True if name == "--standardize" else value if eq else next(args)
    return flags


def _probs(flags: dict):
    """The link probabilities: the triple, --p-ortho alone with the rest
    split equally, or uniform."""
    ortho, meta, para = (flags.get(f"--p-{kind}") for kind in ("ortho", "meta", "para"))
    if meta is not None:
        return sc.LinkProbabilities(float(ortho), float(meta), float(para))
    if ortho is not None:
        return sc.LinkProbabilities.from_ortho(float(ortho))
    return sc.LinkProbabilities.uniform()


def _expected(command: str, flags: dict) -> dict:
    """What the library gives for the inputs of an argv that exits 0, by
    output flag: the --out (or stdout) payload, and a table (a list of rows)
    for each other output file."""
    probs, seed = _probs(flags), int(flags.get("--seed", 0))
    n = int(flags["--n"]) if "--n" in flags else None
    a = float(flags["--a"]) if "--a" in flags else None
    spec = sc.registry_lookup(flags["--index"], a) if "--index" in flags else None
    echo = {} if spec is None else {
        "index": spec.name, **({} if a is None else {"a": a}), "n": n, **asdict(probs)}
    if command == "generate":
        return {"--out": generate_document(sc.generate(n, probs, seed), seed)}
    if command == "compute":
        chain = sc.replay(flags["--links"]) if "--links" in flags else sc.generate(n, probs, seed)
        return {"--out": {"index": spec.name, "n": chain.n,
                          "value": sc.evaluate(spec, chain.graph), "m44": chain.ortho_count}}
    if command == "analyze":
        c = sc.coefficients(spec, probs)
        return {"--out": {
            **echo, "ti2": c.ti2, "alpha": [c.alpha_ortho, c.alpha_meta, c.alpha_para],
            "alpha_bar": c.alpha_bar, "beta": c.beta, "A": c.A, "B": c.B, "C": c.C,
            "mean": sc.expected_value(spec, n, probs), "variance": sc.variance(spec, n, probs),
            "deterministic": c.deterministic}}
    if command == "distribution":
        dist = sc.exact_distribution(spec, n, probs)
        ks = [None] * dist.pmf.size if dist.ortho_counts is None else dist.ortho_counts.tolist()
        return {"--out": {"rows": [{"k": k, "value": v, "probability": p} for k, v, p
                                   in zip(ks, dist.support.tolist(), dist.pmf.tolist())]}}
    if command == "compare":
        report = sc.compare_expectations(n, probs)
        return {"--out": {
            "n": n, **asdict(probs),
            "expectations": dict(zip(report.names, report.expectations)),
            "orderings": [{"left": left, "right": right, "holds": holds}
                          for left, right, holds in report.pairs()],
            "all_ordered": report.all_ordered}}
    reps, standardize = int(flags.get("--reps", 5000)), "--standardize" in flags
    values = (sc.standardized_sample(spec, n, probs, reps, seed) if standardize
              else sc.simulate(spec, n, probs, reps, seed).values)
    report = sc.normality_check(values) if standardize and reps >= 100 else None
    files = {}
    if "--samples-out" in flags:
        files["--samples-out"] = [[v] for v in values.tolist()]
    if "--histogram-out" in flags:
        hist = sc.histogram(values, int(flags.get("--bins", 40)))
        edges = hist.edges.tolist()
        files["--histogram-out"] = [
            ["bin_left", "bin_right", "count", "density"],
            *zip(edges[:-1], edges[1:], hist.counts.tolist(), hist.densities().tolist())]
    renamed = {"minimum": "min", "maximum": "max"}
    return {"--out": {
        **echo, "reps": reps, "seed": seed, "rng": "philox4x64-10+splitmix64",
        "standardized": standardize,
        "summary": {renamed.get(key, key): value
                    for key, value in asdict(sc.summarize(values)).items()},
        "normality": None if report is None else {**asdict(report), "passed": report.passed},
    }, **files}


def _csv_rows(command: str, payload: dict) -> list[list]:
    """The CSV table of a payload: one row per distribution row, one per
    compared index, or one per key (a list giving one `key_i` row per item)."""
    if command == "distribution":
        return [list(payload["rows"][0]), *(list(row.values()) for row in payload["rows"])]
    if command == "compare":
        holds = ["", *(entry["holds"] for entry in payload["orderings"])]
        return [["index", "expectation", "ordered_after_previous"],
                *([*pair, ordered] for pair, ordered in zip(payload["expectations"].items(), holds))]
    rows = [["key", "value"]]
    for key, value in payload.items():
        rows.extend([[f"{key}_{i}", x] for i, x in enumerate(value)] if isinstance(value, list)
                    else [[key, value]])
    return rows


def _check_meaning(argv, code, out, err, files) -> None:
    """Assert what the outputs of one run of argv mean (see the module docstring)."""
    flags = _flags(argv)
    if code != 0:
        assert out == "" and all(text is None for text in files.values()), "wrote output"
        if err is not None:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
            if " must be an integer " in err:
                assert err.split()[1] in flags, f"the refused count is not named by its flag: {err}"
        return
    assert err == ""
    if "--out" in flags:
        assert out == ""
        out = files[flags["--out"]]
    texts = {"--out": out, **{flag: files[flags[flag]] for flag in _OUT_FLAGS[1:] if flag in flags}}
    assert None not in texts.values(), "an output file is missing"
    expected = _expected(argv[0], flags)
    assert texts.keys() == expected.keys()
    fmt = flags.get("--format", "csv" if argv[0] == "distribution" else "json")
    for flag, want in expected.items():
        if isinstance(want, dict) and fmt == "csv":
            want = _csv_rows(argv[0], want)
        if isinstance(want, list):  # a CSV table
            got = [line.split(",") for line in texts[flag].splitlines()]
            want = [["" if x is None else str(x) for x in row] for row in want]
        else:  # a JSON payload, or generate's document
            got = texts[flag] if isinstance(want, str) else json.loads(texts[flag])
        assert got == want, flag


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_is_byte_identical(entry, tmp_path):
    assert _record(entry["argv"], tmp_path) == entry


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_means_what_the_library_gives(entry, tmp_path):
    _check_meaning(entry["argv"], *_run(entry["argv"], tmp_path))


if __name__ == "__main__":
    import tempfile

    records, failed = [], []
    for entry in ENTRIES:
        with tempfile.TemporaryDirectory() as tmp:
            result = _run(entry["argv"], Path(tmp))
        try:
            _check_meaning(entry["argv"], *result)
        except Exception as exc:
            failed.append(entry["argv"])
            print("fails its meaning check:", " ".join(entry["argv"]), repr(exc), file=sys.stderr)
        records.append(_hashes(entry["argv"], *result))
    if failed:
        sys.exit(f"wrote nothing: {len(failed)} of {len(records)} commands fail")
    changed = [record for record in records if record not in ENTRIES]
    for record in changed:
        print("changed:", " ".join(record["argv"]), file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} commands to {GOLDEN}; "
          f"{len(records) - len(changed)} unchanged", file=sys.stderr)
