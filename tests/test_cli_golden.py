"""CLI outputs frozen byte for byte: exit code, stdout, stderr and every file
written.

`cli_golden.json` is the one list of CLI cases.  It holds, for each command,
its argv (output paths under a `{tmp}` placeholder), the exit code, the
sha256 of stdout, the stderr text with paths under `{tmp}`, and the sha256
of each output file (null when the file must not exist).  Where argparse
exits, stderr is null: its usage text varies with the Python version and
COLUMNS, and test_cli_surface pins the parser.
Re-record it only when an output change is intended, or to add a case (append
`{"argv": [...]}` to the file first):

    PYTHONPATH=src python tests/test_cli_golden.py

That re-runs the argv of every entry in the file, in order, and prints the
argv of each entry that changed and the count of the rest.
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
ENTRIES = json.loads(GOLDEN.read_text())

_OUT_FLAGS = ("--out", "--samples-out", "--histogram-out")


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _record(argv: list[str], tmp: Path) -> dict:
    """Run one command in process; return its exit code, stderr and output hashes."""
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
            files[value] = _sha256(path.read_text()) if path.exists() else None
    return {"argv": argv, "exit": code, "stdout": _sha256(stdout.getvalue()),
            "stderr": err, "files": files}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_is_byte_identical(entry, tmp_path):
    assert _record(entry["argv"], tmp_path) == entry


if __name__ == "__main__":
    import tempfile

    records = []
    for entry in ENTRIES:
        with tempfile.TemporaryDirectory() as tmp:
            records.append(_record(entry["argv"], Path(tmp)))
    changed = [record for record in records if record not in ENTRIES]
    for record in changed:
        print("changed:", " ".join(record["argv"]), file=sys.stderr)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} commands to {GOLDEN}; "
          f"{len(records) - len(changed)} unchanged", file=sys.stderr)
