"""Span tracing from outside the package, and `-X importtime` parsing.

The tracer wraps the package's public functions in place.  A function is
patched in every `spirochain` module namespace that holds it, so calls
between modules (montecarlo -> chain.draw_link_indexes, cli -> generate)
are seen as well as calls from the benchmark.  Spans stay in memory as
(name, start, end, parent, work) columns and are written out once, at the
end of the run; a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np


def _draws(args, kwargs, result) -> int:
    return int(result.size)


def _edge_bytes(args, kwargs, result) -> int:
    return int(args[0].edges.nbytes)


# (span name, module, attribute or Class.method, work extractor).  Some
# targets (expected_value, variance, standardized_sample) back no metric;
# they are wrapped so that their time is not charged to the caller's self
# time.
TARGETS = (
    ("chain.rng_from_seed", "spirochain.chain", "rng_from_seed", None),
    ("chain.draw_link_indexes", "spirochain.chain", "draw_link_indexes", _draws),
    ("chain.replay", "spirochain.chain", "replay", None),
    ("chain.generate", "spirochain.chain", "generate", None),
    ("graph.validate", "spirochain.graph", "MolecularGraph.__post_init__", _edge_bytes),
    ("graph.to_dict", "spirochain.graph", "MolecularGraph.to_dict", None),
    ("graph.edge_profile", "spirochain.graph", "edge_profile", None),
    ("indices.evaluate", "spirochain.indices", "evaluate", None),
    ("analytics.coefficients", "spirochain.analytics", "coefficients", None),
    ("analytics.expected_value", "spirochain.analytics", "expected_value", None),
    ("analytics.variance", "spirochain.analytics", "variance", None),
    ("analytics.exact_distribution", "spirochain.analytics", "exact_distribution", None),
    ("analytics.standardize", "spirochain.analytics", "standardize", None),
    ("analytics.compare_expectations", "spirochain.analytics", "compare_expectations", None),
    ("montecarlo.simulate", "spirochain.montecarlo", "simulate", None),
    ("montecarlo.standardized_sample", "spirochain.montecarlo", "standardized_sample", None),
    ("montecarlo.summarize", "spirochain.montecarlo", "summarize", None),
    ("montecarlo.normality_check", "spirochain.montecarlo", "normality_check", None),
    ("montecarlo.histogram", "spirochain.montecarlo", "histogram", None),
    ("montecarlo.martingale_residual_check", "spirochain.montecarlo",
     "martingale_residual_check", None),
    ("cli", "spirochain.cli", "main", None),
)

_MC_REDUCERS = ("montecarlo.simulate", "montecarlo.martingale_residual_check")
_DRAW_SPANS = ("chain.draw_link_indexes", "chain.rng_from_seed")


class Tracer:
    """Records spans while `active`; wrappers cost one flag test when not."""

    def __init__(self) -> None:
        self.names = [name for name, *_ in TARGETS]
        self.name_id = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work = array("q")
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, work):
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.end)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.work.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target in every loaded `spirochain` namespace."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "spirochain" or name.startswith("spirochain.")
        ]
        for nid, (_, module_name, attr, work) in enumerate(TARGETS):
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(nid, original, work))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, work; plus the Monte
        Carlo split between Philox draws and the reduction."""
        nid = np.frombuffer(self.name_id, dtype=np.int16).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int64)
        work = np.frombuffer(self.work, dtype=np.int64).astype(float)
        size = len(self.names)
        child = parent >= 0
        children = np.bincount(parent[child], weights=dur[child], minlength=nid.size)
        self_time = dur - children
        calls = np.bincount(nid, minlength=size)
        total = np.bincount(nid, weights=dur, minlength=size)
        selfs = np.bincount(nid, weights=self_time, minlength=size)
        works = np.bincount(nid, weights=work, minlength=size)
        per_name = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(selfs[i]), "work": float(works[i])}
            for i, name in enumerate(self.names)
        }
        reducer_ids = [self.names.index(n) for n in _MC_REDUCERS]
        draw_ids = [self.names.index(n) for n in _DRAW_SPANS]
        parent_name = np.where(child, nid[np.maximum(parent, 0)], -1)
        under_mc = np.isin(parent_name, reducer_ids) & np.isin(nid, draw_ids)
        return {
            "spans": int(nid.size),
            "per_name": per_name,
            "mc_draw_s": float(dur[under_mc].sum()),
            "mc_links": float(work[under_mc].sum()),
            "mc_reduce_s": float(sum(selfs[i] for i in reducer_ids)),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "start_ns", "end_ns", "parent", "work"],
                "name": self.name_id.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
                "work": self.work.tolist(),
            }, fh)


def parse_importtime(stderr: str) -> dict:
    """Import cost of the package from `python -X importtime` output.

    spirochain_s sums the cumulative time of top-level `spirochain*`
    imports; modules counts the modules those imports loaded; scipy_s sums
    the self time of every scipy module.
    """
    spirochain_us = scipy_us = modules = pending = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, raw = int(fields[0]), int(fields[1]), fields[2]
        name = raw.strip()
        pending += 1
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
        if len(raw) - len(raw.lstrip()) <= 1:  # a top-level import
            if name == "spirochain" or name.startswith("spirochain."):
                spirochain_us += cumulative_us
                modules += pending
            pending = 0
    return {
        "spirochain_s": spirochain_us / 1e6,
        "scipy_s": scipy_us / 1e6,
        "modules": modules,
    }
