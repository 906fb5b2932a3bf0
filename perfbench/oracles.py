"""Output checks for the benchmark workloads.

Every check returns a list of problems; an empty list means the output is
correct.  The checks hold for any seed: they rest on exact identities of
spiro chains and on the reproducibility contract, never on one lucky draw.

The affine constants below are the hand-derived ones from the paper (value
= A + B*m44 + C*n on every chain, with ti2 = A + 2C and alpha_meta = C), so
the oracle does not ask the package under test for them.  The link
reference re-implements the contract: a Philox-4x64 stream keyed by the
seed, inverse CDF over (ortho, meta, para) in that order, and replication
seeds seed XOR splitmix64(index).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

_SQ2, _SQ5, _SQ6 = math.sqrt(2), math.sqrt(5), math.sqrt(6)

AFFINE = {
    "nirmala": (8 - 4 * _SQ6, 2 - 2 * _SQ6 + 2 * _SQ2, 4 + 4 * _SQ6),
    "randic": (2 - _SQ2, 3 / 4 - _SQ2 / 2, 1 + _SQ2),
    "sombor": (8 * _SQ2 - 8 * _SQ5, 6 * _SQ2 - 4 * _SQ5, 4 * _SQ2 + 8 * _SQ5),
    "second-zagreb": (-16.0, 4.0, 40.0),
}

REL_TOL = 1e-9
# Library gates of normality_check (acceptance criterion 5); the report's
# flags must agree with them.
LIBRARY_GATES = {"ks": 0.03, "mean": 0.05, "variance": 0.05, "skewness": 0.1}
# Gates that a correct N(0, 1) sample of size N misses with probability
# below ~1e-9, whatever the seed.  The library gates sit near 2.5 sigma on
# the variance at N = 5,000 and so fail by chance on about 1% of seeds.
_SIGMAS = 6.0
_KS_LATTICE = 0.01  # CDF jump of the standardized binomial at n = 10,000

_MASK64 = (1 << 64) - 1
_LINK_CHARS = np.frombuffer(b"OMP", dtype="S1")


def splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def replication_seed(seed: int, index: int) -> int:
    return (seed & _MASK64) ^ splitmix64(index & _MASK64)


def contract_links(seed: int, count: int, probs: tuple[float, float, float]) -> str:
    """Link string that the reproducibility contract prescribes."""
    u = np.random.Generator(np.random.Philox(key=seed & _MASK64)).random(count)
    cdf = np.array([probs[0], probs[0] + probs[1], 1.0])
    return _LINK_CHARS[np.searchsorted(cdf, u, side="right")].tobytes().decode()


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def affine_value(index: str, n: int, m44) -> float:
    a, b, c = AFFINE[index]
    return a + b * m44 + c * n


def graph_counts(edges: np.ndarray, vertex_count: int) -> dict:
    """Degree and degree-pair counts of an edge list, computed from scratch."""
    deg = np.bincount(edges.ravel(), minlength=vertex_count)
    ends = deg[edges]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    keys = np.sort(np.minimum(edges[:, 0], edges[:, 1]) * vertex_count + np.maximum(
        edges[:, 0], edges[:, 1]
    ))
    return {
        "c2": int(np.count_nonzero(deg == 2)),
        "c4": int(np.count_nonzero(deg == 4)),
        "other_degrees": int(np.count_nonzero((deg != 2) & (deg != 4))),
        "m22": int(np.count_nonzero((lo == 2) & (hi == 2))),
        "m24": int(np.count_nonzero((lo == 2) & (hi == 4))),
        "m44": int(np.count_nonzero((lo == 4) & (hi == 4))),
        "self_loops": int(np.count_nonzero(edges[:, 0] == edges[:, 1])),
        # Equal neighbours of the sorted keys; np.unique's hashing is ~10x slower here.
        "duplicates": int(np.count_nonzero(keys[1:] == keys[:-1])),
    }


def check_chain_structure(tag, n, links, vertex_count, edges, profile) -> list[str]:
    """Counts every n-hexagon chain must have, read off its edge list."""
    problems = []
    if vertex_count != 5 * n + 1:
        problems.append(f"{tag}: {vertex_count} vertices, expected {5 * n + 1}")
    if edges.shape != (6 * n, 2):
        problems.append(f"{tag}: edge array shape {edges.shape}, expected {(6 * n, 2)}")
        return problems
    if edges.min() < 0 or edges.max() >= vertex_count:
        return problems + [f"{tag}: edge endpoint out of range"]
    counts = graph_counts(edges, vertex_count)
    m44 = links.count("O")
    expected = {
        "c4": n - 1,
        "other_degrees": 0,
        "m44": m44,
        "m24": 4 * (n - 1) - 2 * m44,
        "self_loops": 0,
        "duplicates": 0,
    }
    for key, want in expected.items():
        if counts[key] != want:
            problems.append(f"{tag}: {key} is {counts[key]}, expected {want}")
    for key in ("m22", "m24", "m44"):
        if profile[key] != counts[key]:
            problems.append(
                f"{tag}: edge profile {key}={profile[key]}, edges give {counts[key]}"
            )
    return problems


def check_small_chain(seed, index, n, probs, links, vertex_count, edges, profile,
                      values) -> list[str]:
    tag = f"chain {index}"
    want = contract_links(replication_seed(seed, index), n - 2, probs)
    if links != want:
        return [f"{tag}: links break the reproducibility contract"]
    problems = check_chain_structure(tag, n, links, vertex_count, edges, profile)
    for name, value in values.items():
        expected = affine_value(name, n, profile["m44"])
        if not close(value, expected):
            problems.append(f"{tag}: {name}={value!r}, A + B*m44 + C*n = {expected!r}")
    return problems


def check_generate_document(text: str, n: int, seed: int, probs) -> list[str]:
    """`spiro generate` output: parses, follows the contract, right counts."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"generate seed {seed}: JSON does not parse ({exc})"]
    tag = f"generate seed {seed}"
    try:
        links = doc["links"]
        if doc["n"] != n or doc["seed"] != seed:
            return [f"{tag}: n/seed echo {doc['n']}/{doc['seed']}"]
        if links != contract_links(seed, n - 2, probs):
            return [f"{tag}: links break the reproducibility contract"]
        edges = np.array(doc["edges"], dtype=np.int64).reshape(-1, 2)
        return check_chain_structure(
            tag, n, links, doc["vertices"], edges, doc["edge_profile"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{tag}: malformed document ({exc!r})"]


def check_study(index: str, n: int, p_ortho: float, reps: int, z, sampled) -> list[str]:
    """Standardized sample of `reps` chains with n hexagons.

    Undoes the standardization with the closed-form moments, reads off each
    replication's ortho count k and requires value = ti2 + alpha_meta*(n-2)
    + B*k.  `sampled` maps replication index -> ortho count of the chain
    that generate() grows from that replication's seed.
    """
    z = np.asarray(z, dtype=float)
    tag = f"{index} study"
    if z.shape != (reps,) or not np.all(np.isfinite(z)):
        return [f"{tag}: expected {reps} finite values, got shape {z.shape}"]
    a, b, c = AFFINE[index]
    steps = n - 2
    mean = a + c * n + b * p_ortho * steps
    sd = abs(b) * math.sqrt(p_ortho * (1 - p_ortho) * steps)
    values = z * sd + mean
    k = np.rint((values - a - c * n) / b)
    expected = a + b * k + c * n
    problems = []
    off = np.abs(values - expected) > REL_TOL * np.abs(expected)
    if off.any():
        problems.append(f"{tag}: {int(off.sum())} values are not ti2 + alpha_meta*(n-2) + B*k")
    if k.min() < 0 or k.max() > steps:
        problems.append(f"{tag}: ortho counts outside [0, {steps}]")
    for r, count in sampled.items():
        if int(k[r]) != count:
            problems.append(f"{tag}: replication {r} has k={int(k[r])}, generate gives {count}")
    return problems


def check_normality(z, report) -> list[str]:
    """The report matches a from-scratch KS/moment computation, its flags
    match the library gates, and the sample passes sample-size gates."""
    x = np.sort(np.asarray(z, dtype=float))
    size = x.size
    mean = float(x.mean())
    centered = x - mean
    m2 = float(np.mean(centered * centered))
    variance = float(x.var(ddof=1))
    skewness = float(np.mean(centered**3)) / m2**1.5
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.tolist()])
    ranks = np.arange(1, size + 1, dtype=float)
    ks = max(float(np.max(ranks / size - cdf)), float(np.max(cdf - (ranks - 1) / size)))
    problems = []
    for name, got, want in (
        ("ks_statistic", report.ks_statistic, ks),
        ("mean", report.mean, mean),
        ("variance", report.variance, variance),
        ("skewness", report.skewness, skewness),
    ):
        if not abs(got - want) <= 1e-9:
            problems.append(f"normality: {name}={got!r}, recomputed {want!r}")
    flags = {
        "ks_ok": report.ks_statistic < LIBRARY_GATES["ks"],
        "mean_ok": abs(report.mean) < LIBRARY_GATES["mean"],
        "variance_ok": abs(report.variance - 1.0) < LIBRARY_GATES["variance"],
        "skewness_ok": abs(report.skewness) < LIBRARY_GATES["skewness"],
    }
    for name, want in flags.items():
        if getattr(report, name) != want:
            problems.append(f"normality: {name}={getattr(report, name)}, gate says {want}")
    if report.passed != all(flags.values()):
        problems.append("normality: passed disagrees with the gate flags")
    gates = (
        ("mean", abs(mean), _SIGMAS / math.sqrt(size)),
        ("variance", abs(variance - 1.0), _SIGMAS * math.sqrt(2.0 / size)),
        ("skewness", abs(skewness), _SIGMAS * math.sqrt(6.0 / size)),
        ("ks", ks, _KS_LATTICE + math.sqrt(math.log(2e9) / (2 * size))),
    )
    for name, got, limit in gates:
        if not got < limit:
            problems.append(f"normality: |{name}| {got:.4g} exceeds {limit:.4g}")
    return problems


def check_histogram(z, hist, bins: int) -> list[str]:
    x = np.asarray(z, dtype=float)
    edges, counts = np.asarray(hist.edges), np.asarray(hist.counts)
    if edges.shape != (bins + 1,) or counts.shape != (bins,):
        return [f"histogram: shapes {edges.shape}/{counts.shape} for {bins} bins"]
    problems = []
    if edges[0] != x.min() or edges[-1] != x.max() or np.any(np.diff(edges) <= 0):
        problems.append("histogram: edges do not span [min, max] increasingly")
    which = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)
    if not np.array_equal(np.bincount(which, minlength=bins), counts):
        problems.append("histogram: counts disagree with the returned edges")
    return problems


def check_residual(index: str, p_ortho: float, trajectories: int, residual) -> list[str]:
    """Acceptance criterion 6: residual <= 5 sd / sqrt(trajectories)."""
    b = AFFINE[index][1]
    sd = abs(b) * math.sqrt(p_ortho * (1 - p_ortho))
    limit = 5 * sd / math.sqrt(trajectories)
    if not (math.isfinite(residual) and 0 <= residual <= limit):
        return [f"martingale {index}: residual {residual!r} outside [0, {limit:.4g}]"]
    return []


def _compare(path: str, want, got, problems: list[str]) -> None:
    """Ints, strings and bools exactly, floats to relative 1e-9; keys the
    reference lacks are allowed (new output blocks)."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object, got {got!r:.60}")
            return
        for key, value in want.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                _compare(f"{path}.{key}", value, got[key], problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: expected a list of {len(want)}")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _compare(f"{path}[{i}]", w, g, problems)
            if len(problems) > 20:
                return
    elif isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not close(float(got), want):
            problems.append(f"{path}: {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        problems.append(f"{path}: {got!r:.60} != {want!r:.60}")


def parse_csv_rows(text: str) -> list[dict]:
    """`spiro distribution` CSV rows, typed like the JSON form."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({
            "k": int(row["k"]) if row["k"] else None,
            "value": float(row["value"]),
            "probability": float(row["probability"]),
        })
    return rows


def check_cli_call(kind: str, returncode: int, stdout: str, reference) -> list[str]:
    """One cold `spiro` call against in-process library results."""
    if returncode != 0:
        return [f"cli {kind}: exit code {returncode}"]
    try:
        got = {"rows": parse_csv_rows(stdout)} if kind == "distribution" else json.loads(stdout)
    except (ValueError, KeyError) as exc:
        return [f"cli {kind}: output does not parse ({exc})"]
    problems: list[str] = []
    _compare(f"cli {kind}", reference, got, problems)
    return problems
