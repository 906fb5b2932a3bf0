"""Closed forms at n beyond the double range raise UndefinedBase.

At n = 10**308 the second-Zagreb moments overflow to inf; at n = 10**400
n - 2 itself does not convert to a double.  Both are signalled the same way,
and the CLI reports them as validation failures (exit 2).  The first Zagreb
index is deterministic on chains, so its exact distribution is one atom at
the mean, which overflows from n = 10**307.
"""

import pytest

from spirochain import (
    LinkProbabilities,
    UndefinedBase,
    compare_expectations,
    exact_distribution,
    expected_value,
    registry_lookup,
    second_moment,
    standardize,
    variance,
)
from spirochain.cli import main

UNIFORM = LinkProbabilities.uniform()

CASES = {"second-zagreb 1e308": ("second-zagreb", 10**308), "randic 1e400": ("randic", 10**400)}

LAWS = {
    "expected_value": lambda spec, n: expected_value(spec, n, UNIFORM),
    "variance": lambda spec, n: variance(spec, n, UNIFORM),
    "second_moment": lambda spec, n: second_moment(spec, n, UNIFORM),
    "standardize": lambda spec, n: standardize(1.0, spec, n, UNIFORM),
    "compare_expectations": lambda spec, n: compare_expectations(n, UNIFORM),
}


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
@pytest.mark.parametrize("law", LAWS.values(), ids=list(LAWS))
def test_closed_forms_at_huge_n_raise_undefined_base(law, case):
    name, n = case
    with pytest.raises(UndefinedBase, match="not finite"):
        law(registry_lookup(name), n)


@pytest.mark.parametrize("n", [10**307, 10**400], ids=["1e307", "1e400"])
@pytest.mark.parametrize("law", [expected_value, second_moment, exact_distribution],
                         ids=lambda law: law.__name__)
def test_first_zagreb_laws_at_huge_n_raise_undefined_base(law, n):
    with pytest.raises(UndefinedBase, match="not finite"):
        law(registry_lookup("first-zagreb"), n, UNIFORM)


@pytest.mark.parametrize("argv", [
    ["analyze", "--index", "randic"],
    ["compare"],
    ["distribution", "--index", "first-zagreb"],
])
def test_cli_at_huge_n_exits_2(capsys, argv):
    code = main([*argv, "--n", str(10**400)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not finite" in captured.err
