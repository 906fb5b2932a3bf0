"""Command-line behaviour that the golden cases (test_cli_golden) cannot
express: patched failures, fresh processes and closed pipes, argvs that must
give the same output, a distribution too long to pin, and generated argvs."""

import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_env, run_fresh
from spirochain import (
    LinkProbabilities, MolecularGraph, NTooLarge, exact_distribution, generate, registry_lookup,
)
from spirochain import chain as chain_module, cli, graph
from spirochain.chain import _BLOCK_RINGS
from spirochain.cli import COMMANDS, main
from spirochain.indices import REGISTRY_NAMES, VARIABLE_EXPONENT_NAMES
from test_cli_golden import generate_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n", [2, 1000, 5000])
def test_generate_writes_edges_without_python_lists(capsys, monkeypatch, tmp_path, n):
    chain = generate(n, LinkProbabilities(0.3, 0.45, 0.25), 11)
    reference = generate_document(chain, 11).encode()

    def refuse(*args):
        raise AssertionError("a graph was built, or went through to_dict or its profile")

    # The chain writes its edges from its rings, so no graph is built.
    monkeypatch.setattr(MolecularGraph, "__post_init__", refuse)
    monkeypatch.setattr(MolecularGraph, "to_dict", refuse)
    # The edge profile comes from the closed form in n and the ortho count.
    monkeypatch.setattr(graph, "edge_profile", refuse)
    monkeypatch.setattr(MolecularGraph, "degree_pair_counts", property(refuse))
    argv = ["generate", "--n", str(n), "--seed", "11",
            "--p-ortho", "0.3", "--p-meta", "0.45", "--p-para", "0.25"]
    target = tmp_path / "g.json"
    assert run(capsys, *argv) == (0, reference.decode(), "")
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == reference
    # compute answers from the links or the closed form, not from a graph.
    for source in (["--links", "OMPO"], ["--n", str(n)]):
        code, _, err = run(capsys, "compute", "--index", "randic", *source)
        assert code == 0, err


def test_ortho_shorthand_matches_explicit_triple(capsys):
    _, shorthand, _ = run(capsys, "analyze", "--index", "nirmala", "--n", "7",
                          "--p-ortho", "0.4")
    _, explicit, _ = run(capsys, "analyze", "--index", "nirmala", "--n", "7",
                         "--p-ortho", "0.4", "--p-meta", "0.3", "--p-para", "0.3")
    assert json.loads(shorthand) == json.loads(explicit)


def row_dict_text(dist, fmt):
    """A law's rows rendered the way the CLI once did: one dict per row,
    then json.dumps, or each dict's values joined as a CSV line."""
    ks = [None] * dist.pmf.size if dist.ortho_counts is None else dist.ortho_counts.tolist()
    rows = [{"k": k, "value": v, "probability": p}
            for k, v, p in zip(ks, dist.support.tolist(), dist.pmf.tolist())]
    if fmt == "json":
        return json.dumps({"rows": rows}, indent=2, allow_nan=False) + "\n"
    table = [list(rows[0]), *(list(row.values()) for row in rows)]
    return "".join(",".join("" if x is None else str(x) for x in row) + "\n" for row in table)


# Above the golden file's sizes, each row layout on each shape of law: k
# rising (randic, B > 0; second-zagreb, whose values are whole numbers),
# k falling (sombor, B < 0), k empty where variable-sum-connectivity at
# a = 1e-10 merges the support, and one atom with k empty (first-zagreb).
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name, a, first_k", [
    ("randic", None, 0), ("variable-sum-connectivity", 1e-10, None),
    ("second-zagreb", None, 0), ("sombor", None, 19_998), ("first-zagreb", None, None),
], ids=["randic", "merged", "second-zagreb", "sombor", "first-zagreb"])
def test_long_distribution_writes_the_row_dict_text(capsys, name, a, first_k, fmt):
    a_flag = [] if a is None else ["--a", str(a)]
    dist = exact_distribution(registry_lookup(name, a), 20_000, LinkProbabilities.uniform())
    assert (None if dist.ortho_counts is None else dist.ortho_counts[0]) == first_k
    assert (dist.support.size == 1) == (name == "first-zagreb")
    code, out, err = run(capsys, "distribution", "--index", name, *a_flag,
                         "--n", "20000", "--format", fmt)
    assert (code, err) == (0, "")
    # Compared line by line, so that a failure names its first differing row
    # at once: pytest takes minutes to explain two unequal long strings.
    assert out.split("\n") == row_dict_text(dist, fmt).split("\n")


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", "-0.001"])
def test_a_negative_number_reads_the_same_after_a_space_or_an_equals_sign(capsys, value):
    analyze = ("analyze", "--index", "variable-first-zagreb", "--n", "10")
    spaced = run(capsys, *analyze, "--a", value)
    joined = run(capsys, *analyze, f"--a={value}")
    assert spaced == joined and spaced[0] == 0 and spaced[1]
    code, out, err = run(capsys, *analyze, "--a", "1", "--p-ortho", value)
    assert (code, out) == (2, "") and f"p_ortho={float(value)!r} is outside [0, 1]" in err


@pytest.mark.parametrize("owner, name, argv", [
    (cli, "expected_value", ["analyze", "--index", "randic", "--n", "10"]),
    (cli, "evaluate_from_profile",
     ["compute", "--index", "randic", "--links", "OMP", "--format", "csv"]),
], ids=["analyze-json", "compute-csv"])
def test_a_non_finite_value_reaching_the_output_exits_4_and_writes_nothing(
        monkeypatch, capsys, tmp_path, owner, name, argv):
    # The library raises on every non-finite result (exit 2), so one that
    # reaches the renderer breaks its contract: that is a bug, not bad input.
    monkeypatch.setattr(owner, name, lambda *args: math.inf)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "") and err.startswith("internal error")
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (4, "")
    assert not target.exists()


def test_failed_write_removes_no_device_written_before(capsys, monkeypatch):
    removed = []
    monkeypatch.setattr(Path, "unlink", lambda path, **_: removed.append(str(path)))
    code, _, err = run(
        capsys, "simulate", "--index", "nirmala", "--n", "100", "--reps", "50",
        "--samples-out", os.devnull, "--histogram-out", "/nonexistent/h.csv",
    )
    assert code == 2 and "--histogram-out" in err
    assert removed == []


def _failing_blocks(error):
    """An edge writer that yields the opening bracket, then raises `error`."""
    def blocks(chain):
        yield b"["
        raise error
    return blocks


def test_a_writer_failing_after_the_first_write_exits_2_and_leaves_no_out_file(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(chain_module, "_edges_json_blocks",
                        _failing_blocks(NTooLarge("n=50 is too large for the arrays it sizes")))
    target = tmp_path / "g.json"
    code, out, err = run(capsys, "generate", "--n", "50", "--out", str(target))
    assert (code, out, err) == (2, "", "error: --n=50 is too large for the arrays it sizes\n")
    assert not target.exists()


def test_an_interrupt_while_writing_propagates_and_leaves_no_out_file(monkeypatch, tmp_path):
    monkeypatch.setattr(chain_module, "_edges_json_blocks", _failing_blocks(KeyboardInterrupt()))
    target = tmp_path / "g.json"
    with pytest.raises(KeyboardInterrupt):
        main(["generate", "--n", "50", "--out", str(target)])
    assert not target.exists()


def test_a_failed_open_removes_the_files_written_before_but_not_its_own(
        capsys, monkeypatch, tmp_path):
    samples, target = tmp_path / "s.csv", tmp_path / "kept.json"
    target.write_text("kept")
    real_open = Path.open

    def refuse_target(path, *args, **kwargs):
        if path == target:
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refuse_target)
    code, _, err = run(capsys, "simulate", "--index", "nirmala", "--n", "100", "--reps", "50",
                       "--samples-out", str(samples), "--out", str(target))
    assert code == 2 and f"--out: cannot write {target}: Permission denied" in err
    assert not samples.exists()
    monkeypatch.undo()
    assert target.read_text() == "kept"


ENTRY = "from spirochain.cli import entry; entry()"


def spiro(*argv):
    """Run the `spiro` console entry point in a fresh interpreter."""
    return run_fresh("-c", ENTRY, *argv, text=False)


def test_generate_stdout_and_out_file_are_the_same_bytes(tmp_path):
    # Six edge blocks: the ids of blocks 0-3 are shorter than six digits in
    # places, so those go through the zero-byte strip; blocks 4-5 do not.
    chain = generate(30_000, LinkProbabilities.uniform(), 3)
    assert -(-chain.n // _BLOCK_RINGS) == 6
    target = tmp_path / "g.json"
    printed = spiro("generate", "--n", "30000", "--seed", "3")
    written = spiro("generate", "--n", "30000", "--seed", "3", "--out", str(target))
    assert (printed.returncode, printed.stderr) == (0, b""), printed.stderr
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert printed.stdout == target.read_bytes() == generate_document(chain, 3).encode()
    text = io.StringIO()
    with redirect_stdout(text):
        assert main(["generate", "--n", "30000", "--seed", "3"]) == 0
    assert text.getvalue().encode() == printed.stdout


@pytest.mark.parametrize("argv, read", [
    (["generate", "--n", "100000"], 10),  # the pipe closes while blocks are written
    (["compare", "--n", "20"], 0),  # the whole output waits in stdout's buffer
], ids=["generate", "compare"])
def test_a_reader_that_closes_stdout_early_gets_exit_2_and_no_traceback(argv, read):
    # Block-buffered stdout, as from a shell: an empty PYTHONUNBUFFERED is unset.
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=fresh_env(PYTHONUNBUFFERED=""))
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith(b"error: stdout: ") and err.count(b"\n") == 1, err


# Counts up to 10**4 run in full; the powers of ten from 10**19 are past
# the int64 range, and from 10**309 past the double range.  Bin counts from
# 2**63 - 1 overflow numpy's intp.
_COUNTS = st.integers(2, 10**4) | st.sampled_from([10**k for k in range(19, 401)])
_BINS = st.integers(1, 10**4) | st.integers(2**63 - 1, 2**63 + 10)


@st.composite
def _spiro_argv(draw):
    """A `spiro` argv; "{dir}" in it stands for an empty scratch directory.
    A real value follows its flag after either a space or an `=`."""
    command = draw(st.sampled_from(list(COMMANDS)))
    argv = [command, f"--n={draw(_COUNTS)}"]

    def real(flag, values):
        value = repr(draw(values))
        argv.extend(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))

    if command not in ("generate", "compare"):
        index = draw(st.sampled_from(REGISTRY_NAMES))
        argv.append(f"--index={index}")
        if index in VARIABLE_EXPONENT_NAMES:
            real("--a", st.floats(-600, 600) | st.sampled_from([math.inf, -math.inf]))
    if command in ("generate", "compute", "simulate"):
        argv.append(f"--seed={draw(st.integers(-2**70, 2**70))}")
    if draw(st.booleans()):
        real("--p-ortho", st.floats(-0.5, 1.5))
    if command == "simulate":
        argv += [f"--reps={draw(st.integers(1, 200))}", f"--bins={draw(_BINS)}",
                 "--histogram-out={dir}/h.csv", "--samples-out={dir}/s.csv"]
        if draw(st.booleans()):
            argv.append("--standardize")
    return argv


@settings(max_examples=100, deadline=None)
@given(_spiro_argv())
@example(["distribution", "--index", "first-zagreb", "--n", str(10**400)])
@example(["simulate", "--index", "randic", "--n", "10", "--reps", "3",
          "--bins", str(2**63 - 1), "--histogram-out", "{dir}/h.csv"])
def test_no_argv_reaches_an_internal_error(argv):
    with tempfile.TemporaryDirectory() as scratch:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([arg.replace("{dir}", scratch) for arg in argv])
        assert code in (0, 2, 3), err.getvalue()
        assert code == 0 or not os.listdir(scratch)
