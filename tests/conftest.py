"""Shared fixtures: exhaustive enumeration oracle and small helpers."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import spirochain
from spirochain import LINK_ORDER, LinkType, enumerate_all, evaluate, replay

SRC = str(Path(spirochain.__file__).resolve().parents[1])


def run_fresh(*args, text=True, **env):
    """Run `python *args` in a fresh interpreter that imports this tree's
    package; keyword arguments are added to its environment."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          env=env, timeout=120)


class EnumOracle:
    """Exhaustive sweep over all link sequences of small chains.

    Chains are replayed once per sequence and shared across indices and
    probability vectors; values always come from full graph evaluation, so
    the oracle is independent of the closed-form layer.
    """

    def __init__(self, max_n=9):
        self.max_n = max_n
        self._chains = {}
        self._weights = {}
        self._values = {}

    def chains(self, n):
        if n not in self._chains:
            self._chains[n] = [
                (combo, replay(combo))
                for combo in itertools.product(LINK_ORDER, repeat=n - 2)
            ]
        return self._chains[n]

    def weights(self, n, probs):
        key = (n, probs.as_tuple())
        if key not in self._weights:
            combos = [combo for combo, _ in self.chains(n)]
            pairs = list(enumerate_all(n, probs))
            assert [combo for combo, _ in pairs] == combos
            self._weights[key] = np.array([w for _, w in pairs], dtype=float)
        return self._weights[key]

    def values(self, n, spec):
        key = (n, spec.name, spec.exponent)
        if key not in self._values:
            self._values[key] = np.array(
                [evaluate(spec, chain.graph) for _, chain in self.chains(n)]
            )
        return self._values[key]

    def ortho_counts(self, n):
        return np.array(
            [sum(1 for link in combo if link is LinkType.ORTHO)
             for combo, _ in self.chains(n)],
            dtype=np.int64,
        )


@pytest.fixture(scope="session")
def enum_oracle():
    return EnumOracle()


_REFERENCE_OFFSET = {LinkType.ORTHO: 1, LinkType.META: 2, LinkType.PARA: 3}


def reference_replay(links):
    """Step-by-step chain construction over Python tuples.

    Each new hexagon shares the vertex at ring distance 1, 2 or 3 (O, M, P)
    from the terminal ring's cut vertex and takes the next five ids.
    Returns (edge rows as a list of (low, high) pairs, the terminal ring's
    cut vertex), independent of the closed form that replay() uses.
    """
    def ring_rows(ring):
        return [tuple(sorted((ring[i], ring[(i + 1) % 6]))) for i in range(6)]

    ring, cut = (0, 6, 7, 8, 9, 10), 0
    rows = ring_rows(tuple(range(6))) + ring_rows(ring)
    next_id = 11
    for link in links:
        cut = ring[(ring.index(cut) + _REFERENCE_OFFSET[link]) % 6]
        ring = (cut, *range(next_id, next_id + 5))
        rows += ring_rows(ring)
        next_id += 5
    return rows, cut


def assert_matches_reference(chain):
    rows, _ = reference_replay(chain.links)
    assert chain.graph.edges.tolist() == [list(row) for row in rows]
    assert chain.graph.vertex_count == 5 * chain.n + 1


def rel_close(a, b, rtol, atol=1e-15):
    """|a - b| within rtol of the larger magnitude, with a tiny floor."""
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def binomial_chi_square(ortho_counts, m, p, min_expected=5.0):
    """Chi-square fit of observed ortho counts to Binomial(m, p).

    Pools sparse adjacent outcome classes until each pooled class has the
    minimum expected count.  Returns (statistic, degrees_of_freedom).
    """
    counts = np.bincount(np.asarray(ortho_counts), minlength=m + 1)
    total = counts.sum()
    expected = binom.pmf(np.arange(m + 1), m, p) * total

    pooled_obs, pooled_exp = [], []
    acc_obs = acc_exp = 0.0
    for obs, exp in zip(counts, expected):
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= min_expected:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0:
        if pooled_exp:
            pooled_obs[-1] += acc_obs
            pooled_exp[-1] += acc_exp
        else:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)

    pooled_obs = np.array(pooled_obs)
    pooled_exp = np.array(pooled_exp)
    statistic = float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp))
    return statistic, max(len(pooled_exp) - 1, 1)
