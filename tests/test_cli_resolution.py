"""Every subcommand checks the shared flags the same way, whatever else it is given."""

import pytest

from spirochain.cli import main

# The smallest valid call of each subcommand; compute reads an explicit chain.
VALID = {
    "generate": ["generate", "--n", "3"],
    "compute": ["compute", "--index", "randic", "--links", "OMP"],
    "analyze": ["analyze", "--index", "randic", "--n", "3"],
    "distribution": ["distribution", "--index", "randic", "--n", "3"],
    "simulate": ["simulate", "--index", "randic", "--n", "3", "--reps", "2"],
    "compare": ["compare", "--n", "3"],
}

BAD_PROBABILITIES = {
    "out of range": ["--p-ortho", "7"],
    "partial triple": ["--p-meta", "0.5"],
    "wrong sum": ["--p-ortho", "0.5", "--p-meta", "0.4", "--p-para", "0.4"],
    "nan": ["--p-ortho", "0.2", "--p-meta", "nan", "--p-para", "0.4"],
    "sum off by 1e-10": ["--p-ortho", "0.5", "--p-meta", "0.5", "--p-para", "1e-10"],
}


@pytest.mark.parametrize("flags", BAD_PROBABILITIES.values(), ids=list(BAD_PROBABILITIES))
@pytest.mark.parametrize("command", VALID)
def test_bad_probabilities_exit_2_on_every_subcommand(capsys, command, flags):
    assert main(VALID[command]) == 0
    capsys.readouterr()
    assert main(VALID[command] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--p-" in captured.err


def test_a_nan_probability_is_named(capsys):
    assert main(VALID["generate"] + BAD_PROBABILITIES["nan"]) == 2
    assert "p_meta=nan" in capsys.readouterr().err
