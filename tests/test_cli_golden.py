"""CLI outputs frozen byte for byte: exit code, stdout and every file written.

`cli_golden.json` holds, for each command, its argv (output paths under a
`{tmp}` placeholder), the exit code, and the sha256 of stdout and of each
output file (null when the file must not exist).  Regenerate it only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py

It prints the argv of each entry that changed and the count of the rest.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from spirochain.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

_OUT_FLAGS = ("--out", "--samples-out", "--histogram-out")

COMMANDS = [
    ["generate", "--n", "2"],
    ["generate", "--n", "5", "--p-ortho", "1", "--p-meta", "0", "--p-para", "0"],
    ["generate", "--n", "30", "--seed", "11", "--p-ortho", "0.3", "--p-meta", "0.45",
     "--p-para", "0.25", "--format", "json"],
    ["generate", "--n", "50", "--seed", "7", "--out", "{tmp}/g.json"],
    ["generate", "--n", "3", "--format", "csv"],
    ["generate", "--n", "1"],
    ["generate", "--n", "4", "--p-ortho", "0.5", "--p-meta", "0.4", "--p-para", "0.4"],
    ["generate", "--n", "4", "--p-meta", "0.5"],
    ["compute", "--index", "first-zagreb", "--links", "OMP"],
    ["compute", "--index", "second-zagreb", "--links", "", "--format", "csv"],
    ["compute", "--index", "sombor", "--n", "6", "--seed", "3"],
    ["compute", "--index", "variable-sum-connectivity", "--a", "0.5", "--n", "20",
     "--seed", "4", "--p-ortho", "0.2", "--format", "csv", "--out", "{tmp}/c.csv"],
    ["compute", "--index", "randic", "--links", "OMX"],
    ["compute", "--index", "randic"],
    ["compute", "--index", "randic", "--links", "O", "--n", "4"],
    ["compute", "--index", "wiener", "--links", "O"],
    ["analyze", "--index", "sombor", "--n", "100", "--p-ortho", "0.3"],
    ["analyze", "--index", "variable-sum-connectivity", "--n", "5", "--a", "1.0",
     "--format", "csv"],
    ["analyze", "--index", "randic", "--n", "9", "--out", "{tmp}/a.json"],
    ["analyze", "--index", "variable-sum-connectivity", "--n", "5"],
    ["analyze", "--index", "randic", "--n", "5", "--a", "2"],
    ["analyze", "--index", "variable-first-zagreb", "--a", "2000", "--n", "10"],
    ["analyze", "--index", "variable-first-zagreb", "--a", "511", "--n", "10",
     "--format", "csv", "--out", "{tmp}/nf.csv"],
    ["distribution", "--index", "second-zagreb", "--n", "4", "--p-ortho", "0.3333333",
     "--p-meta", "0.3333333", "--p-para", "0.3333334"],
    ["distribution", "--index", "first-zagreb", "--n", "6", "--format", "json"],
    ["distribution", "--index", "randic", "--n", "40", "--p-ortho", "0.5",
     "--format", "json", "--out", "{tmp}/d.json"],
    ["distribution", "--index", "variable-sum-connectivity", "--a", "1e-10",
     "--n", "1000"],
    ["simulate", "--index", "second-zagreb", "--n", "300", "--reps", "400",
     "--seed", "5", "--standardize", "--samples-out", "{tmp}/s.csv",
     "--histogram-out", "{tmp}/h.csv", "--bins", "20"],
    ["simulate", "--index", "first-zagreb", "--n", "50", "--reps", "20"],
    ["simulate", "--index", "variable-sum-connectivity", "--a", "-0.5", "--n", "200",
     "--reps", "150", "--seed", "9", "--p-ortho", "0.6", "--out", "{tmp}/sim.json",
     "--histogram-out", "{tmp}/h2.csv"],
    ["simulate", "--index", "first-zagreb", "--n", "50", "--reps", "20",
     "--standardize"],
    ["simulate", "--index", "nirmala", "--n", "5", "--reps", "0"],
    ["simulate", "--index", "nirmala", "--n", "4", "--reps", "5", "--format", "csv"],
    ["simulate", "--index", "nirmala", "--n", "10", "--reps", "5", "--bins", "0"],
    ["simulate", "--index", "nirmala", "--n", "100", "--reps", "50",
     "--samples-out", "{tmp}/s2.csv", "--histogram-out", "{tmp}/missing/h.csv"],
    ["compare", "--n", "50", "--p-ortho", "0.5"],
    ["compare", "--n", "10", "--format", "csv"],
    ["compare", "--n", "30", "--p-ortho", "0.2", "--p-meta", "0.5", "--p-para", "0.3",
     "--out", "{tmp}/cmp.json"],
]


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _record(argv: list[str], tmp: Path) -> dict:
    """Run one command in process; return its exit code and output hashes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    files = {}
    for flag, value in zip(argv, argv[1:]):
        if flag in _OUT_FLAGS:
            path = Path(value.replace("{tmp}", str(tmp)))
            files[value] = _sha256(path.read_text()) if path.exists() else None
    return {"argv": argv, "exit": code, "stdout": _sha256(stdout.getvalue()),
            "files": files}


# Read at import so that the script below can run before the file exists;
# the first test then fails rather than passing over nothing.
ENTRIES = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_every_command():
    assert [entry["argv"] for entry in ENTRIES] == COMMANDS


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_is_byte_identical(entry, tmp_path):
    assert _record(entry["argv"], tmp_path) == entry


if __name__ == "__main__":
    import tempfile

    records = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            records.append(_record(argv, Path(tmp)))
    changed = [record for record in records if record not in ENTRIES]
    for record in changed:
        print("changed:", " ".join(record["argv"]), file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} commands to {GOLDEN}; "
          f"{len(records) - len(changed)} unchanged", file=sys.stderr)
