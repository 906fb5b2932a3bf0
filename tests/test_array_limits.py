"""n too large for the arrays it sizes raises NTooLarge, and the CLI exits 2
with an error that names the count by its flag.

At n = 10**400 numpy refuses the array size before allocating anything.  At
n = 10**12 the arrays would take terabytes; those cases run in a child
process whose address space is capped at 2 GB, so the allocation fails at
once and no memory is touched.  Under the same cap, the edge writer of a
chain too long to write whole holds no more than a block beside its codes.
"""

import os

import pytest

from conftest import run_fresh
from spirochain import (
    LinkProbabilities,
    NTooLarge,
    draw_link_indexes,
    exact_distribution,
    generate,
    histogram,
    martingale_residual_check,
    registry_lookup,
    rng_from_seed,
    simulate,
)
from spirochain.cli import main

UNIFORM = LinkProbabilities.uniform()
RANDIC = registry_lookup("randic")
HUGE = 10**400

CALLS = {
    "exact_distribution": lambda n: exact_distribution(RANDIC, n, UNIFORM),
    "simulate": lambda n: simulate(RANDIC, n, UNIFORM, 2, 0),
    "martingale_residual_check": lambda n: martingale_residual_check(RANDIC, UNIFORM, n, 2, 0),
    "generate": lambda n: generate(n, UNIFORM, 0),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=list(CALLS))
def test_arrays_beyond_numpy_limits_raise_n_too_large(call):
    with pytest.raises(NTooLarge, match=r"n=1000+ is too large"):
        call(HUGE)


def test_other_counts_too_large_are_named():
    with pytest.raises(NTooLarge, match=r"reps=1000+ is too large"):
        simulate(RANDIC, 10, UNIFORM, HUGE, 0)
    with pytest.raises(NTooLarge, match=r"bins=1000+ is too large"):
        histogram([0.0, 1.0], HUGE)
    with pytest.raises(NTooLarge, match=rf"count={10**19} is too large"):
        draw_link_indexes(rng_from_seed(0), 10**19, UNIFORM)
    for bins in (2**63 - 1, 2**63):  # numpy fails on its count of edges, allocating nothing
        with pytest.raises(NTooLarge, match=rf"bins={bins} is too large"):
            histogram([0.0, 1.0], bins)


@pytest.mark.parametrize("argv, flag", [
    (["distribution", "--index", "randic"], "--n"),
    (["simulate", "--index", "randic", "--reps", "2"], "--n"),
    (["compute", "--index", "randic"], "--n"),
    (["generate"], "--n"),
    (["simulate", "--index", "randic", "--n", "10"], "--reps"),
])
def test_cli_beyond_numpy_limits_exits_2(capsys, argv, flag):
    code = main([*argv, flag, str(HUGE)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {flag}={HUGE} is too large")


CHILD = """
import resource, sys
from spirochain.cli import main
limit = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs resource limits")
@pytest.mark.parametrize("argv", [
    ["simulate", "--index", "randic", "--reps", "2"],
    ["compute", "--index", "randic"],
    ["distribution", "--index", "randic"],
    ["generate"],  # the codes are allocated before the first of the blocks of draws
])
def test_cli_beyond_memory_exits_2(argv):
    proc = run_fresh("-c", CHILD, *argv, "--n", str(10**12), OPENBLAS_NUM_THREADS="1")
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: --n=1000000000000 is too large"), proc.stderr


def test_cli_histogram_beyond_numpy_limits_exits_2(capsys, tmp_path):
    path = tmp_path / "h.csv"
    for bins in (HUGE, 2**63 - 1, 2**63):
        code = main(["simulate", "--index", "randic", "--n", "10", "--reps", "5",
                     "--bins", str(bins), "--histogram-out", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: --bins={bins} is too large")
        assert not path.exists()


WRITER_CHILD = """
import itertools, resource
from spirochain import SpiroChain
from spirochain.chain import _BLOCK_RINGS, _edges_json_blocks
limit = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
chain = SpiroChain(5 * 10**7, b"M" * (5 * 10**7 - 2))
short = SpiroChain(20 * _BLOCK_RINGS + 1, b"M" * (20 * _BLOCK_RINGS - 1))
# "[" and the first 20 blocks, one at a time: their ids (below 10**6) are the short chain's
blocks = zip(itertools.islice(_edges_json_blocks(chain), 21), _edges_json_blocks(short))
same = all(a == b for a, b in blocks)
print(same, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start) >> 10)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs resource limits")
def test_edge_writer_beyond_memory_holds_one_block_beside_the_codes():
    # The 6.5 GB document of 5 * 10**7 rings is never held, and the writer
    # sizes nothing by n: its first blocks fit beside the codes' 47.7 MiB.
    proc = run_fresh("-c", WRITER_CHILD, OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    same, grown = proc.stdout.split()
    assert same == "True" and int(grown) < 48 + 16, proc.stdout  # MiB
