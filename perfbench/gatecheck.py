"""Shows that the benchmark counts a corrupted output as a failed op.

    python3 perfbench/gatecheck.py

For each workload, runs one clean cycle of the closed loop (no failures
allowed), then one cycle in which a single op's output is corrupted; that
op, and only it, must be counted as failed.  Exits 1 if a corruption goes
unnoticed or a clean output is rejected.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

import oracles  # noqa: E402
import worker  # noqa: E402


def flip_last_ortho_count(wl, out):
    """Move the last replication one ortho link up: still on the lattice."""
    z, report, hist = out
    b = oracles.AFFINE["nirmala"][1]
    p, steps = wl.probs.p_ortho, wl.N - 2
    z = z.copy()
    z[-1] += b / (abs(b) * math.sqrt(p * (1 - p) * steps))
    return z, report, hist


def truncate_document(wl, code):
    text = wl.path.read_text()
    wl.path.write_text(text[: len(text) // 2])
    return code


def bump_m44(wl, outs):
    """One chain of the batch reports an extra (4,4) edge."""
    chain, profile, values = outs[-1]
    return outs[:-1] + [(chain, dataclasses.replace(profile, m44=profile.m44 + 1), values)]


def exit_code_4(wl, proc):
    proc.returncode = 4
    return proc


CORRUPTIONS = {
    "mc_study": ("one flipped ortho count", flip_last_ortho_count),
    "long_chain": ("a truncated JSON document", truncate_document),
    "small_chains": ("one edge profile with an extra (4,4) edge", bump_m44),
    "cli_cold": ("a spiro exit code of 4", exit_code_4),
}


def main() -> int:
    ok = True
    for name, (what, corrupt) in CORRUPTIONS.items():
        sc = worker.setup(name, ROOT)
        wl = worker.make_workload(name, sc, 20260101, ROOT)
        cycle = len(wl.kinds)
        clean = worker.measure(wl, oracles, 0, 0)
        run = wl.run

        def corrupted(i, run=run, corrupt=corrupt, wl=wl, target=cycle):
            elapsed, out = run(i)
            return elapsed, corrupt(wl, out) if i == target else out

        wl.run = corrupted
        bad = worker.measure(wl, oracles, 0, cycle)
        passed = clean["failed"] == 0 and bad["failed"] == 1
        ok &= passed
        print(f"{name}: clean {clean['failed']}/{clean['attempted']} failed; "
              f"with {what}: {bad['failed']}/{bad['attempted']} failed "
              f"-> {'PASS' if passed else 'FAIL'}")
        for problem in clean["problems"] + bad["problems"][:3]:
            print(f"    {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
