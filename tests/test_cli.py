"""Command-line interface: flags, outputs, formats, and exit codes."""

import csv
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_fresh
from spirochain import (
    LinkProbabilities,
    MolecularGraph,
    coefficients,
    edge_profile,
    evaluate,
    generate,
    links_to_string,
    registry_lookup,
)
from spirochain import cli, graph
from spirochain.chain import _BLOCK_RINGS
from spirochain.cli import COMMANDS, main
from spirochain.indices import REGISTRY_NAMES, VARIABLE_EXPONENT_NAMES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_seed_chain(capsys):
    code, out, _ = run(capsys, "generate", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["links"] == ""
    assert payload["vertices"] == 11
    assert len(payload["edges"]) == 12
    assert payload["edge_profile"] == {"m22": 8, "m24": 4, "m44": 0}
    assert payload["rng"] == "philox4x64-10"


def test_generate_degenerate_probabilities(capsys):
    code, out, _ = run(
        capsys, "generate", "--n", "5",
        "--p-ortho", "1", "--p-meta", "0", "--p-para", "0",
    )
    assert code == 0
    assert json.loads(out)["links"] == "OOO"


def test_generate_validation_failures(capsys):
    code, _, err = run(capsys, "generate", "--n", "1")
    assert code == 2 and "--n" in err


def generate_document(chain, seed):
    """`spiro generate` output built from to_dict() and json.dumps."""
    as_dict = chain.graph.to_dict()
    profile = edge_profile(chain.graph)
    return json.dumps(
        {
            "n": chain.n,
            "links": links_to_string(chain.links),
            "vertices": as_dict["vertices"],
            "edges": as_dict["edges"],
            "edge_profile": {"m22": profile.m22, "m24": profile.m24, "m44": profile.m44},
            "rng": "philox4x64-10",
            "seed": seed,
        },
        separators=None,
    ) + "\n"


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


def test_compute_on_explicit_links(capsys):
    code, out, _ = run(capsys, "compute", "--index", "first-zagreb", "--links", "OMP")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"index": "first-zagreb", "n": 5, "value": 152.0, "m44": 1}

    code, out, _ = run(capsys, "compute", "--index", "second-zagreb", "--links", "")
    assert json.loads(out)["value"] == 64.0

    code, out, _ = run(capsys, "compute", "--index", "nirmala", "--links", "O")
    expected = 22 + 6 * math.sqrt(6) + 2 * math.sqrt(2)
    assert math.isclose(json.loads(out)["value"], expected, rel_tol=1e-12)


def test_compute_on_a_generated_chain(capsys):
    code, out, _ = run(capsys, "compute", "--index", "sombor", "--n", "6", "--seed", "3")
    assert code == 0
    chain = generate(6, LinkProbabilities.uniform(), 3)
    assert json.loads(out)["value"] == evaluate(registry_lookup("sombor"), chain.graph)


def test_compute_validation(capsys):
    code, _, err = run(capsys, "compute", "--index", "randic", "--links", "OMX")
    assert code == 2 and "--links" in err


def test_analyze_fields_round_trip_exactly(capsys):
    code, out, _ = run(
        capsys, "analyze", "--index", "sombor", "--n", "100", "--p-ortho", "0.3"
    )
    assert code == 0
    payload = json.loads(out)
    spec = registry_lookup("sombor")
    c = coefficients(spec, LinkProbabilities.from_ortho(0.3))
    assert payload["B"] == c.B  # exact: JSON floats round-trip
    assert abs(payload["B"] - (6 * math.sqrt(2) - 4 * math.sqrt(5))) < 1e-12
    assert payload["alpha"] == [c.alpha_ortho, c.alpha_meta, c.alpha_para]
    assert payload["deterministic"] is False
    assert list(payload) == [
        "index", "n", "p_ortho", "p_meta", "p_para", "ti2", "alpha",
        "alpha_bar", "beta", "A", "B", "C", "mean", "variance", "deterministic",
    ]


def test_analyze_variable_index_requires_exponent(capsys):
    code, _, err = run(capsys, "analyze", "--index", "variable-sum-connectivity", "--n", "5")
    assert code == 2 and "--a" in err
    code, out, _ = run(
        capsys, "analyze", "--index", "variable-sum-connectivity", "--n", "5", "--a", "1.0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == 1.0
    assert payload["deterministic"] is True
    code, _, err = run(capsys, "analyze", "--index", "randic", "--n", "5", "--a", "2")
    assert code == 2 and "--a" in err


def test_distribution_csv(capsys):
    code, out, _ = run(
        capsys, "distribution", "--index", "second-zagreb", "--n", "4",
        "--p-ortho", "0.3333333", "--p-meta", "0.3333333", "--p-para", "0.3333334",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["k", "value", "probability"]
    assert len(rows) == 4
    assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
    assert [float(row[1]) for row in rows[1:]] == [144.0, 148.0, 152.0]
    total = sum(float(row[2]) for row in rows[1:])
    assert math.isclose(total, 1.0, abs_tol=1e-9)


def test_distribution_json_and_deterministic_atom(capsys):
    code, out, _ = run(
        capsys, "distribution", "--index", "first-zagreb", "--n", "6",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == [{"k": None, "value": 184.0, "probability": 1.0}]


def test_simulate_summary_and_artifacts(capsys, tmp_path):
    samples_path = tmp_path / "samples.csv"
    hist_path = tmp_path / "hist.csv"
    code, out, _ = run(
        capsys, "simulate", "--index", "second-zagreb", "--n", "300",
        "--reps", "400", "--seed", "5", "--standardize",
        "--samples-out", str(samples_path), "--histogram-out", str(hist_path),
        "--bins", "20",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["standardized"] is True
    assert payload["summary"]["count"] == 400
    assert abs(payload["summary"]["mean"]) < 0.3
    assert payload["normality"] is not None
    assert payload["rng"] == "philox4x64-10+splitmix64"

    values = [float(line) for line in samples_path.read_text().splitlines()]
    assert len(values) == 400
    assert math.isclose(values[0], payload["summary"]["mean"], abs_tol=10)

    rows = list(csv.reader(hist_path.read_text().splitlines()))
    assert rows[0] == ["bin_left", "bin_right", "count", "density"]
    assert sum(int(row[2]) for row in rows[1:]) == 400


def test_simulate_raw_summary_for_deterministic_index(capsys):
    code, out, _ = run(
        capsys, "simulate", "--index", "first-zagreb", "--n", "50", "--reps", "20"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["standardized"] is False
    assert payload["summary"]["mean"] == 32 * 50 - 8
    assert payload["summary"]["variance"] == 0.0
    assert payload["normality"] is None


def test_simulate_standardized_deterministic_exits_3(capsys):
    code, _, err = run(
        capsys, "simulate", "--index", "first-zagreb", "--n", "50",
        "--reps", "20", "--standardize",
    )
    assert code == 3 and "variance" in err


def test_compare_json(capsys):
    code, out, _ = run(capsys, "compare", "--n", "50", "--p-ortho", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ordered"] is True
    assert list(payload["expectations"]) == [
        "randic", "nirmala", "sombor", "first-zagreb", "second-zagreb"
    ]
    assert len(payload["orderings"]) == 4
    assert all(entry["holds"] for entry in payload["orderings"])


def test_compare_csv(capsys):
    code, out, _ = run(capsys, "compare", "--n", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["index", "expectation", "ordered_after_previous"]
    assert len(rows) == 6
    assert rows[1][2] == "" and rows[2][2] == "True"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "--index", "randic", "--n", "9", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["index"] == "randic"


def test_ortho_shorthand_matches_explicit_triple(capsys):
    _, shorthand, _ = run(capsys, "analyze", "--index", "nirmala", "--n", "7",
                          "--p-ortho", "0.4")
    _, explicit, _ = run(capsys, "analyze", "--index", "nirmala", "--n", "7",
                         "--p-ortho", "0.4", "--p-meta", "0.3", "--p-para", "0.3")
    assert json.loads(shorthand) == json.loads(explicit)


def test_distribution_with_coincident_support_points(capsys):
    code, out, _ = run(
        capsys, "distribution", "--index", "variable-sum-connectivity",
        "--a", "1e-10", "--n", "20000",
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert 1 < len(rows) < 19999
    assert all(row[0] == "" for row in rows)
    assert math.isclose(sum(float(row[2]) for row in rows), 1.0, abs_tol=1e-12)


def test_index_exponent_overflow_exits_2(capsys):
    code, _, err = run(
        capsys, "analyze", "--index", "variable-first-zagreb", "--a", "2000",
        "--n", "10",
    )
    assert code == 2 and "overflows" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--index", "variable-sum-connectivity", "--n", "5", "--a", "nan"],
    ["analyze", "--index", "variable-sum-connectivity", "--n", "5", "--a=-inf"],
    ["compute", "--index", "variable-first-zagreb", "--a=-inf", "--links", "OMP"],
], ids=["analyze-nan", "analyze-minus-inf", "compute-minus-inf"])
def test_non_finite_exponent_exits_2_naming_it(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "exponent a=" in err and "is not finite" in err


@pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", "-0.001"])
def test_a_negative_number_reads_the_same_after_a_space_or_an_equals_sign(capsys, value):
    analyze = ("analyze", "--index", "variable-first-zagreb", "--n", "10")
    spaced = run(capsys, *analyze, "--a", value)
    joined = run(capsys, *analyze, f"--a={value}")
    assert spaced == joined and spaced[0] == 0 and spaced[1]
    code, out, err = run(capsys, *analyze, "--a", "1", "--p-ortho", value)
    assert (code, out) == (2, "") and f"p_ortho={float(value)!r} is outside [0, 1]" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--format", "json"],
    ["analyze", "--format", "csv"],
    ["distribution"],
    ["simulate", "--reps", "5"],
    ["compute"],
])
def test_non_finite_output_exits_2_and_writes_nothing(capsys, tmp_path, argv):
    # 4**511 is finite, but the sums over a chain overflow the double range.
    target = tmp_path / "out.txt"
    code, out, err = run(
        capsys, *argv, "--index", "variable-first-zagreb", "--a", "511",
        "--n", "10", "--out", str(target),
    )
    assert code == 2 and "not finite" in err
    assert out == ""
    assert not target.exists()


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


def test_simulate_failed_write_leaves_no_partial_artifacts(capsys, tmp_path):
    samples = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "simulate", "--index", "nirmala", "--n", "100", "--reps", "50",
        "--samples-out", str(samples), "--histogram-out", "/nonexistent/h.csv",
    )
    assert code == 2 and "--histogram-out" in err
    assert not samples.exists()


def test_failed_write_removes_no_device_written_before(capsys, monkeypatch):
    removed = []
    monkeypatch.setattr(Path, "unlink", lambda path, **_: removed.append(str(path)))
    code, _, err = run(
        capsys, "simulate", "--index", "nirmala", "--n", "100", "--reps", "50",
        "--samples-out", os.devnull, "--histogram-out", "/nonexistent/h.csv",
    )
    assert code == 2 and "--histogram-out" in err
    assert removed == []


@pytest.mark.parametrize("flag", ["--out", "--samples-out", "--histogram-out"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, flag):
    target = tmp_path / "missing" / "file.csv"
    code, _, err = run(
        capsys, "simulate", "--index", "nirmala", "--n", "100", "--reps", "200",
        flag, str(target),
    )
    assert code == 2 and flag in err
    assert not target.parent.exists()


def spiro(*argv):
    """Run the `spiro` console entry point in a fresh interpreter."""
    return run_fresh("-c", "from spirochain.cli import entry; entry()", *argv, text=False)


def test_generate_stdout_and_out_file_are_the_same_bytes(tmp_path):
    chain = generate(10_000, LinkProbabilities.uniform(), 3)
    assert chain.n > _BLOCK_RINGS  # more than one edge block
    target = tmp_path / "g.json"
    printed = spiro("generate", "--n", "10000", "--seed", "3")
    written = spiro("generate", "--n", "10000", "--seed", "3", "--out", str(target))
    assert (printed.returncode, printed.stderr) == (0, b""), printed.stderr
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert printed.stdout == target.read_bytes() == generate_document(chain, 3).encode()


def test_generate_unwritable_out_exits_2_and_leaves_no_file(tmp_path):
    target = tmp_path / "missing" / "g.json"
    proc = spiro("generate", "--n", "10000", "--seed", "3", "--out", str(target))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"--out: cannot write" in proc.stderr
    assert not target.parent.exists()


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
