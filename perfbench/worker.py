"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py --workload NAME --seed S --seconds T \
        --mode {setup,plain,trace} --result PATH

The worker imports the package, runs one warm-up op that fills the
closed-form layer's cache, prints "ready" (the parent times set-up up to
that line), then runs the workload as a closed loop: one op at a time,
each checked by the oracles, until T seconds have passed and at least one
full cycle of op kinds is done.  Only the package calls are inside the
timed region, and each is bracketed by the host-speed reference loop
(hostspeed.py).  Op 0 is an untimed warm-up.  In trace mode the first half of the time runs untraced and
the second half traced, so the tracing overhead is measured in the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

CLT_INDICES = ("nirmala", "randic", "sombor", "second-zagreb")
MAX_PROBLEMS = 20


def op_seed(seed: int, index: int) -> int:
    """Input seed of op `index`; a pure function of the workload seed."""
    return (seed * 1_000_003 + index * 7_919) % (1 << 63)


class McStudy:
    """Acceptance studies 5 and 6: CLT replications and residual check."""

    kinds = CLT_INDICES + ("martingale",)
    N, REPS, BINS = 10_000, 5_000, 40
    MART_N, MART_TRAJ = 50, 100_000

    def __init__(self, sc, seed):
        self.sc, self.seed = sc, seed
        self.probs = sc.LinkProbabilities.uniform()
        self.work = {k: self.REPS * (self.N - 2) for k in CLT_INDICES}
        self.work["martingale"] = self.MART_TRAJ * (self.MART_N - 2)

    def run(self, i):
        sc, kind, s = self.sc, self.kinds[i % len(self.kinds)], op_seed(self.seed, i)
        if kind == "martingale":
            index = CLT_INDICES[(i // 5) % 4]
            spec = sc.registry_lookup(index)
            t0 = time.perf_counter()
            residual = sc.martingale_residual_check(
                spec, self.probs, self.MART_N, self.MART_TRAJ, s)
            return time.perf_counter() - t0, (index, residual)
        spec = sc.registry_lookup(kind)
        t0 = time.perf_counter()
        z = sc.standardized_sample(spec, self.N, self.probs, self.REPS, s)
        report = sc.normality_check(z)
        hist = sc.histogram(z, self.BINS)
        return time.perf_counter() - t0, (z, report, hist)

    def check(self, i, out, oracles):
        kind, s = self.kinds[i % len(self.kinds)], op_seed(self.seed, i)
        p = self.probs.p_ortho
        if kind == "martingale":
            index, residual = out
            return oracles.check_residual(index, p, self.MART_TRAJ, residual)
        z, report, hist = out
        picks = {0, 1, self.REPS - 1} | {(s >> (8 * j)) % self.REPS for j in range(2)}
        sampled = {
            r: self.sc.generate(self.N, self.probs, self.sc.replication_seed(s, r)).ortho_count
            for r in sorted(picks)
        }
        return (oracles.check_study(kind, self.N, p, self.REPS, z, sampled)
                + oracles.check_normality(z, report)
                + oracles.check_histogram(z, hist, self.BINS))


class LongChain:
    """`spiro generate --n 100000` in process, written to a file."""

    kinds = ("generate",)
    N = 100_000

    def __init__(self, sc, seed, tmp: Path):
        self.seed, self.path = seed, tmp / "long_chain.json"
        from spirochain import cli
        self.cli = cli
        self.work = {"generate": self.N}
        self.out_bytes = []

    def run(self, i):
        s = op_seed(self.seed, i)
        argv = ["generate", "--n", str(self.N), "--seed", str(s), "--out", str(self.path)]
        t0 = time.perf_counter()
        code = self.cli.main(argv)
        return time.perf_counter() - t0, code

    def check(self, i, code, oracles):
        if code != 0:
            return [f"generate: exit code {code}"]
        text = self.path.read_text()
        self.out_bytes.append(len(text.encode()))
        return oracles.check_generate_document(
            text, self.N, op_seed(self.seed, i), (1 / 3, 1 / 3, 1 / 3))


class SmallChains:
    """Acceptance-8 shape: 30-hexagon chains, profiled and evaluated.

    One op is a batch of 100 chains, so that an op outlasts timer noise.
    """

    kinds = ("chains",)
    N, PROBS, BATCH = 30, (0.3, 0.45, 0.25), 100

    def __init__(self, sc, seed):
        self.sc, self.seed = sc, seed
        self.specs = [sc.registry_lookup("nirmala"), sc.registry_lookup("randic")]
        self.work = {"chains": self.N * self.BATCH}

    def run(self, i):
        sc, outs = self.sc, []
        t0 = time.perf_counter()
        for j in range(i * self.BATCH, (i + 1) * self.BATCH):
            chain = sc.generate(self.N, self.PROBS, sc.replication_seed(self.seed, j))
            profile = sc.edge_profile(chain.graph)
            outs.append((chain, profile, [sc.evaluate(spec, chain.graph) for spec in self.specs]))
        return time.perf_counter() - t0, outs

    def check(self, i, outs, oracles):
        problems = []
        for j, (chain, profile, values) in enumerate(outs, start=i * self.BATCH):
            links = "".join(link.value for link in chain.links)
            problems += oracles.check_small_chain(
                self.seed, j, self.N, self.PROBS, links, chain.graph.vertex_count,
                chain.graph.edges,
                {"m22": profile.m22, "m24": profile.m24, "m44": profile.m44},
                {spec.name: v for spec, v in zip(self.specs, values)})
        return problems


class CliCold:
    """One fresh `spiro` process at a time, round-robin over six calls."""

    kinds = ("analyze", "distribution", "compare", "compute", "simulate", "generate")
    SPIRO = "from spirochain.cli import entry; entry()"

    def __init__(self, sc, seed, env):
        self.sc, self.seed, self.env = sc, seed, env
        from spirochain import cli
        self.cli = cli
        self.work = {k: 1 for k in self.kinds}
        self.importtime = False
        self.imports = []
        self.out_bytes = []

    def argv(self, i):
        kind, s = self.kinds[i % len(self.kinds)], op_seed(self.seed, i)
        if kind == "analyze":
            return ["analyze", "--index", "second-zagreb", "--n", "1000", "--p-ortho", "0.3"]
        if kind == "distribution":
            return ["distribution", "--index", "randic", "--n", "2000", "--p-ortho", "0.5"]
        if kind == "compare":
            return ["compare", "--n", "100"]
        if kind == "compute":
            from oracles import contract_links
            links = contract_links(s, 200, (1 / 3, 1 / 3, 1 / 3))
            return ["compute", "--index", "nirmala", "--links", links]
        if kind == "simulate":
            return ["simulate", "--index", "nirmala", "--n", "1000", "--reps", "200",
                    "--seed", str(s), "--standardize"]
        return ["generate", "--n", "1000", "--seed", str(s)]

    def run(self, i):
        flags = ["-X", "importtime"] if self.importtime else []
        cmd = [sys.executable, *flags, "-c", self.SPIRO, *self.argv(i)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - t0
        if self.importtime:
            from tracer import parse_importtime
            self.imports.append(dict(parse_importtime(proc.stderr), wall_s=elapsed))
        return elapsed, proc

    def replay_warm(self, i):
        """The same argv in process (for the traced layer split)."""
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(self.argv(i))

    def check(self, i, proc, oracles):
        kind = self.kinds[i % len(self.kinds)]
        self.out_bytes.append(len(proc.stdout.encode()))
        return oracles.check_cli_call(kind, proc.returncode, proc.stdout,
                                      self.reference(i))

    def reference(self, i):
        """Expected payload, from library calls in this process."""
        sc, argv = self.sc, self.argv(i)
        kind, s = argv[0], op_seed(self.seed, i)
        probs_of = {
            "analyze": sc.LinkProbabilities.from_ortho(0.3),
            "distribution": sc.LinkProbabilities.from_ortho(0.5),
        }
        uniform = sc.LinkProbabilities.uniform()
        prob_fields = lambda p: {"p_ortho": p.p_ortho, "p_meta": p.p_meta, "p_para": p.p_para}
        if kind == "analyze":
            spec, probs, n = sc.registry_lookup("second-zagreb"), probs_of[kind], 1000
            c = sc.coefficients(spec, probs)
            return {"index": spec.name, "n": n, **prob_fields(probs), "ti2": c.ti2,
                    "alpha": [c.alpha_ortho, c.alpha_meta, c.alpha_para],
                    "alpha_bar": c.alpha_bar, "beta": c.beta, "A": c.A, "B": c.B,
                    "C": c.C, "mean": sc.expected_value(spec, n, probs),
                    "variance": sc.variance(spec, n, probs),
                    "deterministic": c.deterministic}
        if kind == "distribution":
            dist = sc.exact_distribution(sc.registry_lookup("randic"), 2000, probs_of[kind])
            counts = dist.ortho_counts
            return {"rows": [
                {"k": None if counts is None else int(counts[j]), "value": float(v),
                 "probability": float(p)}
                for j, (v, p) in enumerate(zip(dist.support, dist.pmf))]}
        if kind == "compare":
            report = sc.compare_expectations(100, uniform)
            return {"n": 100, **prob_fields(uniform),
                    "expectations": dict(zip(report.names, report.expectations)),
                    "orderings": [{"left": a, "right": b, "holds": h}
                                  for a, b, h in report.pairs()],
                    "all_ordered": report.all_ordered}
        if kind == "compute":
            spec, chain = sc.registry_lookup("nirmala"), sc.replay(sc.parse_links(argv[-1]))
            return {"index": spec.name, "n": chain.n,
                    "value": sc.evaluate(spec, chain.graph),
                    "m44": sc.edge_profile(chain.graph).m44}
        if kind == "simulate":
            spec, n, reps = sc.registry_lookup("nirmala"), 1000, 200
            sim = sc.simulate(spec, n, uniform, reps, s)
            samples = sc.standardize(sim.values, spec, n, uniform)
            st, nr = sc.summarize(samples), sc.normality_check(samples)
            return {"index": spec.name, "n": n, **prob_fields(uniform), "reps": reps,
                    "seed": s, "rng": f"{sc.GENERATOR_ALGORITHM}+{sc.SEED_MIX_ALGORITHM}",
                    "standardized": True,
                    "summary": {"count": st.count, "mean": st.mean,
                                "variance": st.variance, "skewness": st.skewness,
                                "excess_kurtosis": st.excess_kurtosis,
                                "min": st.minimum, "max": st.maximum},
                    "normality": {k: getattr(nr, k) for k in (
                        "ks_statistic", "mean", "variance", "skewness",
                        "excess_kurtosis", "ks_ok", "mean_ok", "variance_ok",
                        "skewness_ok", "passed")}}
        chain = sc.generate(1000, uniform, s)
        profile = sc.edge_profile(chain.graph)
        return {"n": chain.n, "links": sc.links_to_string(chain.links),
                "vertices": chain.graph.vertex_count,
                "edges": chain.graph.edges.tolist(),
                "edge_profile": {"m22": profile.m22, "m24": profile.m24,
                                 "m44": profile.m44},
                "rng": sc.GENERATOR_ALGORITHM, "seed": s}


def setup(workload: str, root: Path):
    """Import the package under test and fill the closed-form cache."""
    import spirochain as sc
    if workload in ("long_chain", "cli_cold"):
        import spirochain.cli  # noqa: F401
    if Path(sc.__file__).resolve().parent != (root / "src" / "spirochain").resolve():
        raise SystemExit(f"spirochain imported from {sc.__file__}, not from {root}/src")
    sc.analytics.coefficients(sc.registry_lookup("nirmala"), sc.LinkProbabilities.uniform())
    return sc


def make_workload(name, sc, seed, root: Path):
    tmp = root / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    if name == "mc_study":
        return McStudy(sc, seed)
    if name == "long_chain":
        return LongChain(sc, seed, tmp)
    if name == "small_chains":
        return SmallChains(sc, seed)
    return CliCold(sc, seed, dict(os.environ))


@contextlib.contextmanager
def tracing_on(tracer):
    if tracer is not None:
        tracer.active = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = False


def measure(wl, oracles, seconds, start, tracer=None, first=False):
    """Closed loop for `seconds` (at least one full cycle) from op `start`.

    Each op is recorded as (kind, seconds, done at, reference-loop seconds
    before, after); see hostspeed.py.  Op 0 is a warm-up (it pays for the
    heap's first growth): it is run and checked but not recorded.

    With `first`, the first cycle's outputs are checked only after the
    cycle, so the peak RSS read then belongs to the package alone.
    """
    import hostspeed  # after "ready": it imports NumPy, which set-up must pay for itself

    ops, problems, deferred = [], [], []
    counts = {"attempted": 0, "failed": 0}
    peak_rss_kb = None
    cycle = len(wl.kinds)

    def flush():
        for j, output in deferred:
            try:
                found = wl.check(j, output, oracles)
            except Exception as exc:
                found = [f"op {j} check raised {exc!r}"]
            if found:
                counts["failed"] += 1
                problems.extend(found[:MAX_PROBLEMS - len(problems)])
        deferred.clear()

    i = start
    began = time.perf_counter()
    deadline = began + seconds
    least = cycle + (start == 0)  # at least one full timed cycle
    while i - start < least or time.perf_counter() < deadline:
        kind = wl.kinds[i % cycle]
        counts["attempted"] += 1
        try:
            before = hostspeed.reference_s()
            with tracing_on(tracer):
                elapsed, out = wl.run(i)
            after = hostspeed.reference_s()
            if tracer is not None and hasattr(wl, "replay_warm"):
                with tracing_on(tracer):
                    wl.replay_warm(i)
        except Exception as exc:  # a failed op counts; the loop goes on
            counts["failed"] += 1
            problems.append(f"op {i} ({kind}) raised {exc!r}")
        else:
            if i > 0:
                ops.append((kind, elapsed, time.perf_counter() - began, before, after))
            deferred.append((i, out))
        i += 1
        if not first or i - start >= cycle:
            if first and peak_rss_kb is None:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            flush()
    flush()
    return {"ops": ops, **counts, "problems": problems[:MAX_PROBLEMS], "next": i,
            "peak_rss_kb": peak_rss_kb}


def philox_floor(sc, reps: int = 300, count: int = McStudy.N - 2) -> float:
    """ns per double of a fresh Philox stream at the mc_study draw size."""
    times = []
    for r in range(reps):
        t0 = time.perf_counter_ns()
        sc.rng_from_seed(r).random(count)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / count


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc_study", "long_chain", "small_chains", "cli_cold"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"), default="plain")
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent

    sc = setup(args.workload, root)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    import numpy
    import oracles
    import tracer as tracing

    wl = make_workload(args.workload, sc, args.seed, root)
    result = {"workload": args.workload, "seed": args.seed, "work": wl.work,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__}}
    if args.mode == "plain":
        run = measure(wl, oracles, args.seconds, 0, first=True)
        result["plain"] = run
    else:
        result["philox_ns_per_double"] = philox_floor(sc)
        plain = measure(wl, oracles, args.seconds / 2, 0)
        tr = tracing.Tracer()
        tr.install()
        if isinstance(wl, CliCold):
            wl.importtime = True
        traced = measure(wl, oracles, args.seconds / 2, plain["next"], tracer=tr)
        tr.uninstall()
        result.update(plain=plain, traced=traced, trace=tr.summary())
        if isinstance(wl, CliCold):
            result["imports"] = wl.imports
        if args.spans is not None:
            tr.write(args.spans)
    if args.workload == "cli_cold":
        result["children_peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss
    result["out_bytes"] = getattr(wl, "out_bytes", [])
    if isinstance(wl, LongChain):
        wl.path.unlink(missing_ok=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
