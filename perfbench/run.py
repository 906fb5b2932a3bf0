"""spirochain benchmark: four closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Each workload runs in a fresh interpreter (worker.py),
one op at a time with one client, and every op's output is checked:

  mc_study      standardized_sample(5,000 x n=10,000) + normality_check +
                histogram(40) for nirmala, randic, sombor, second-zagreb,
                then martingale_residual_check(n=50, 100,000 trajectories).
  long_chain    cli.main(["generate", "--n", "100000", ...]) in process.
  small_chains  generate(30, (0.3, 0.45, 0.25), replication_seed(seed, i)),
                edge_profile, evaluate(nirmala), evaluate(randic).
  cli_cold      a fresh `spiro` process per call, round-robin over analyze,
                distribution, compare, compute, simulate and generate.

--trace 0 prints the end-to-end metrics.  Times are at nominal host
speed: each is scaled by the reference loop timed around it on the same
CPU (hostspeed.py), because this shared host's speed drifts by up to 2x;
the raw wall times are in the details file.
  setup_s         median over 3 fresh interpreters of the time from
                  process start to "ready": package import plus one
                  warm-up op.
  peak_rss_mb     peak RSS of the package over the first cycle of ops
                  (for cli_cold: the largest `spiro` child).
  op_p50_ref_ms   median time of one op (one study or residual check, one
                  generate, a batch of 100 small chains, one cold call).
  work_per_ref_s  work done per second of op time: simulated links
                  (mc_study), hexagons built, profiled, evaluated and
                  serialized (long_chain, small_chains), cold calls
                  (cli_cold).

--trace 1 prints the per-layer metrics of a run whose first half is
untraced and second half traced (spans wrap the package's public
functions; see tracer.py).  Call counts and self times are per op of the
traced half, in raw seconds.  The same run measures the floors: `python -c pass`,
`python -c "import numpy"` and the Philox draw rate.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Details (provenance, per-run spread, the cold-call tail percentile, the
first problems found) go to .perfbench/results/, spans to .perfbench/spans/.
`python3 perfbench/gatecheck.py` shows that corrupted outputs are counted
as failed ops; baseline.json holds the figures measured at the seed commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracer import parse_importtime  # noqa: E402

WORKLOADS = ("mc_study", "long_chain", "small_chains", "cli_cold")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 60
WORKER_GRACE_S = 100
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def timed_process(cmd: list[str], env: dict) -> float:
    """Wall time of a process that must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


def start_worker(args, mode: str, env: dict, flags=(), extra=()):
    """Start worker.py; return (process, its stderr file, seconds to ready).

    The worker's stderr goes to a file, so a chatty child (-X importtime)
    never blocks on a full pipe before it is ready.
    """
    cmd = [sys.executable, *flags, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    err = open(ROOT / ".perfbench" / "tmp" / f"{args.workload}-{args.seed}.err", "w+")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    watchdog.cancel()
    if line.strip() != "ready":
        finish(proc, err, 30)
        raise RuntimeError("worker printed no ready line")
    return proc, err, ready


def finish(proc, err, timeout: float) -> str:
    """Wait for a worker (killing it if it overruns); return its stderr."""
    try:
        proc.communicate(timeout=timeout)  # drains stdout, so the worker never blocks
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    err.seek(0)
    text = err.read()
    err.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {text[-2000:]}")
    return text


def setup_samples(args, env, count: int, flags=()) -> list[dict]:
    """Seconds to ready (raw and at nominal host speed) and stderr of
    `count` set-up-only workers, each bracketed by the reference loop."""
    samples = []
    for _ in range(count):
        before = hostspeed.reference_s()
        proc, err, ready = start_worker(args, "setup", env, flags)
        stderr = finish(proc, err, CHILD_TIMEOUT_S)
        after = hostspeed.reference_s()
        samples.append({"raw_s": ready, "s": hostspeed.adjusted(ready, before, after),
                        "stderr": stderr})
    return samples


def iqr_share(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def op_stats(run: dict, work: dict) -> dict:
    """Op-time statistics at nominal host speed (see hostspeed.py), with
    the raw wall-time figures beside them."""
    ops = run["ops"]
    kinds = [op[0] for op in ops]
    raw = [op[1] for op in ops]
    times = [hostspeed.adjusted(t, before, after) for _, t, _, before, after in ops]
    per_kind = {}
    for kind, t in zip(kinds, times):
        per_kind.setdefault(kind, []).append(t)
    done = sum(work[k] for k in kinds)
    ordered = sorted(times)
    stats = {
        "ops": len(times),
        "p50_ms": statistics.median(times) * 1e3,
        "work_per_s": done / sum(times),
        "raw_p50_ms": statistics.median(raw) * 1e3,
        "raw_work_per_s": done / sum(raw),
        "reference_ms": statistics.median(r for op in ops for r in op[3:]) * 1e3,
        "spread_by_kind": {k: iqr_share(v) for k, v in per_kind.items()},
        "median_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in per_kind.items()},
        "op_kinds": kinds,
        "op_seconds": times,
        "op_raw_seconds": raw,
        "op_reference_seconds": [op[3:] for op in ops],
        "op_done_at_s": [op[2] for op in ops],
    }
    if len(ordered) > TAIL_BEYOND:
        stats["tail_ms"] = ordered[-TAIL_BEYOND - 1] * 1e3
        stats["tail_percentile"] = 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)
    return stats


def provenance(args) -> dict:
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor())
    except OSError:
        info["cpu"] = platform.processor()
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    info["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def run_plain(args, env) -> tuple[dict, dict, dict]:
    setups = setup_samples(args, env, SETUP_SAMPLES)
    out = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{args.seed}-plain.json"
    proc, err, _ = start_worker(args, "plain", env, extra=("--result", str(out)))
    finish(proc, err, args.seconds + WORKER_GRACE_S)
    result = json.loads(out.read_text())
    out.unlink()
    run = result["plain"]
    stats = op_stats(run, result["work"])
    rss_kb = (result["children_peak_rss_kb"] if args.workload == "cli_cold"
              else run["peak_rss_kb"])
    metrics = {
        "setup_s": (statistics.median(s["s"] for s in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "op_p50_ref_ms": (stats["p50_ms"], "ms"),
        "work_per_ref_s": (stats["work_per_s"], "1/s"),
    }
    detail = {"setup_samples_s": [s["s"] for s in setups],
              "setup_samples_raw_s": [s["raw_s"] for s in setups],
              "ops": stats, "problems": run["problems"],
              "out_bytes": result["out_bytes"], "versions": result["versions"]}
    return metrics, run, detail


def per_op(summary: dict, name: str, field: str, ops: int) -> float:
    return summary["per_name"][name][field] / ops


LAYER_CALLS = (
    "chain.draw_link_indexes", "chain.rng_from_seed", "chain.replay", "chain.generate",
    "graph.validate", "indices.evaluate", "analytics.coefficients",
    "analytics.exact_distribution", "analytics.standardize",
    "analytics.compare_expectations",
)
LAYER_SELF = LAYER_CALLS + (
    "montecarlo.simulate", "montecarlo.martingale_residual_check",
    "montecarlo.summarize", "montecarlo.normality_check", "montecarlo.histogram",
    "graph.edge_profile", "graph.to_dict", "cli",
)


def run_traced(args, env) -> tuple[dict, dict, dict]:
    python_s = statistics.median(
        timed_process([sys.executable, "-c", "pass"], env) for _ in range(5))
    numpy_s = statistics.median(
        timed_process([sys.executable, "-c", "import numpy"], env) for _ in range(3))
    if args.workload != "cli_cold":  # cli_cold reads imports off its cold calls
        imports = [parse_importtime(s["stderr"]) for s in setup_samples(
            args, env, IMPORT_SAMPLES, flags=("-X", "importtime"))]

    out = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{args.seed}-trace.json"
    spans = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    proc, err, _ = start_worker(args, "trace", env,
                                extra=("--result", str(out), "--spans", str(spans)))
    finish(proc, err, args.seconds + WORKER_GRACE_S)
    result = json.loads(out.read_text())
    out.unlink()
    plain = op_stats(result["plain"], result["work"])
    traced = op_stats(result["traced"], result["work"])
    summary = result["trace"]
    ops = max(traced["ops"], 1)

    import_share = 0.0
    if args.workload == "cli_cold":
        imports = result["imports"]
        import_share = statistics.median(i["spirochain_s"] / i["wall_s"] for i in imports)
    kinds = plain["median_ms_by_kind"].keys() & traced["median_ms_by_kind"].keys()
    overhead = (sum(traced["median_ms_by_kind"][k] for k in kinds)
                / sum(plain["median_ms_by_kind"][k] for k in kinds))
    draw = summary["mc_draw_s"]
    reduce_s = summary["mc_reduce_s"]
    out_bytes = result["out_bytes"]
    draws = summary["per_name"]["chain.draw_link_indexes"]
    draw_ns_per_draw = draws["self_s"] * 1e9 / draws["work"] if draws["work"] else 0.0

    metrics = {
        "import.python_s": (python_s, "s"),
        "import.numpy_s": (numpy_s, "s"),
        "import.spirochain_s": (statistics.median(i["spirochain_s"] for i in imports), "s"),
        "import.scipy_s": (statistics.median(i["scipy_s"] for i in imports), "s"),
        "import.modules": (statistics.median(i["modules"] for i in imports), "count"),
        "chain.philox_ns_per_double": (result["philox_ns_per_double"], "ns"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "host.reference_ms": (plain["reference_ms"], "ms"),
        "chain.draws": (per_op(summary, "chain.draw_link_indexes", "work", ops), "count"),
        "chain.ns_per_draw": (draw_ns_per_draw, "ns"),
        "montecarlo.reduce_ns_per_link": (
            reduce_s * 1e9 / summary["mc_links"] if summary["mc_links"] else 0.0, "ns"),
        "montecarlo.draw_share": (draw / (draw + reduce_s) if draw + reduce_s else 0.0,
                                  "ratio"),
        "graph.edge_bytes": (per_op(summary, "graph.validate", "work", ops), "B"),
        "cli.out_bytes": (statistics.median(out_bytes) if out_bytes else 0.0, "B"),
        "cli.import_share": (import_share, "ratio"),
    }
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (per_op(summary, name, "calls", ops), "count")
    for name in LAYER_SELF:
        key = "cli.self_s" if name == "cli" else f"{name}.self_s"
        metrics[key] = (per_op(summary, name, "self_s", ops), "s")
    detail = {"plain_ops": plain, "traced_ops": traced, "spans_file": str(spans),
              "trace_summary": summary, "imports": imports,
              "problems": result["plain"]["problems"] + result["traced"]["problems"],
              "versions": result["versions"]}
    run = {k: result["plain"][k] + result["traced"][k] for k in ("attempted", "failed")}
    return metrics, run, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "spirochain" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'spirochain'}", file=sys.stderr)
        return 2
    # One CPU for this process and every child, so that an op and the
    # reference loop around it run on the same (independently loaded) vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    for sub in ("tmp", "results"):
        (ROOT / ".perfbench" / sub).mkdir(parents=True, exist_ok=True)
    # Byte-compile up front so that no set-up sample pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)

    try:
        metrics, run, detail = (run_traced if args.trace else run_plain)(args, env)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    detail["provenance"] = provenance(args)
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    detail["failed_ratio"] = run["failed"] / max(run["attempted"], 1)
    path = ROOT / ".perfbench" / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.write_text(json.dumps(detail, indent=1) + "\n")
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run["failed"] == 0 and run["attempted"] > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
