"""planarlab benchmark: one command per workload run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: census, algebra, mub-verify and
mub-io (see BENCHMARK.json for why each exists).  A run

1. starts the workload process seven times and takes the time each start
   used until it was ready (setup_s is the median); one of them runs the
   timed phase;
2. runs the workload's representative CLI command three times between those
   starts, each time in a fresh interpreter; the median of their CPU times is
   cli.median_s;
3. checks every request and every CLI stdout against the goldens;
4. prints one ``# run`` line with the run's metadata, then the result as one
   JSON object on the last line, and saves both to perfbench/out/.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced pass (spans go to perfbench/out/).  The
end-to-end times are CPU times scaled to reference seconds by the host speed
measured alongside (worker.py, speed.py).  At most one child process
runs at a time, so the load never exceeds two processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path

from common import OUT_DIR, ROOT, SRC, child_env, source_present
from workloads import CLI, UNITS, WORKLOADS, digest, load_cli_goldens

# "setup" starts a workload process and stops it once ready, "work" starts
# the one that runs the timed phase, "cli" times one CLI invocation.
SCHEDULE = ("setup", "cli", "setup", "setup", "work", "setup", "setup", "cli", "setup", "cli")
WORKER_TIMEOUT_S = 150
CLI_TIMEOUT_S = 30
PERCENTILES = (90, 95, 99, 99.9)
WORKER = Path(__file__).resolve().parent / "worker.py"


class RunFailed(Exception):
    """The benchmark could not produce a result."""


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it; the
    maximum when the run has too few samples for any (fewer than 100)."""
    n = len(values)
    usable = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    pct = usable[-1] if usable else 100
    return pct, percentile(values, pct)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(args, trace: bool) -> tuple[subprocess.Popen, float, float]:
    """Spawn the workload process; returns it once ready, with its set-up
    time in reference seconds and in CPU seconds."""
    cmd = [sys.executable, str(WORKER), args.workload, str(args.seed), str(args.seconds),
           "1" if trace else "0"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        words = (proc.stdout.readline() if ready else "").split()
        if len(words) != 3 or words[0] != "READY":
            raise RunFailed(f"workload process did not get ready (got {words[:1]!r})")
        return proc, float(words[1]), float(words[2])
    except BaseException:
        _stop(proc)
        raise


def finish_worker(proc: subprocess.Popen, command: str) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=WORKER_TIMEOUT_S)
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RunFailed(f"workload process exited with {proc.returncode}")
    return out


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cli_sample(golden: dict, record: dict) -> None:
    """Run the CLI command once; its CPU time is that of the one child
    process that ends in between."""
    t0 = children_cpu_s()
    proc = subprocess.run([sys.executable, "-m", "planarlab", *golden["args"]],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    record["cli_s"].append(children_cpu_s() - t0)
    record["cli_bytes"] += len(proc.stdout)
    if (proc.returncode != golden["exit_code"]
            or digest(proc.stdout) != golden["stdout_sha256"]):
        record["cli_failures"] += 1


def run_schedule(args) -> dict:
    """Take the set-up and CLI samples spread over the whole run: the speed of
    a shared machine drifts over seconds, and samples taken back to back
    would all see the same drift."""
    golden = load_cli_goldens()[args.workload]
    if golden["args"] != CLI[args.workload]:
        raise RunFailed("CLI golden was recorded for another command")
    trace = bool(args.trace)
    record = {"setup_s": [], "setup_cpu_s": [], "cli_s": [], "cli_bytes": 0, "cli_failures": 0,
              "worker": None}
    for step in SCHEDULE:
        if step == "cli":
            cli_sample(golden, record)
            continue
        proc, ref_s, cpu_s = start_worker(args, trace)
        record["setup_s"].append(ref_s)
        record["setup_cpu_s"].append(cpu_s)
        if step == "setup":
            finish_worker(proc, "quit")
            continue
        out = finish_worker(proc, "go")
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if not last.startswith("RESULT "):
            raise RunFailed("workload process printed no result")
        record["worker"] = json.loads(last[len("RESULT "):])
    return record


def metadata(args, worker: dict) -> dict:
    try:
        # the ceiling keeps git from reporting a repository that encloses a
        # checkout which is not one itself
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    source = b"".join(p.read_bytes() for p in sorted((SRC / "planarlab").glob("*.py")))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": digest(source),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "unit": UNITS[args.workload],
        "requests_per_pass": worker["requests_per_pass"],
        "passes": len(worker["pass_wall_s"]),
        "pass_wall_s": worker["pass_wall_s"],
        "pass_cpu_s": worker["pass_cpu_s"],
        "pass_raw_cpu_s": worker["pass_raw_cpu_s"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not source_present():
        print(f"error: no planarlab sources under {SRC}", file=sys.stderr)
        return 2

    try:
        record = run_schedule(args)
    except (RunFailed, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worker = record["worker"]

    passes = len(worker["pass_wall_s"])
    attempted = passes * worker["requests_per_pass"] + len(record["cli_s"])
    failed = len(worker["failures"]) + record["cli_failures"]
    for _, failure in worker["failures"][:20]:
        print(f"failed request: {failure}", file=sys.stderr)
    if record["cli_failures"]:
        print(f"failed CLI invocations: {record['cli_failures']}", file=sys.stderr)

    # a request's latency is the median over the passes that ran it
    latency = [statistics.median(reps) for reps in zip(*worker["latencies_ms"])]
    pct, tail_ms = tail(latency)
    meta = metadata(args, worker)
    meta.update({"fail_ratio": failed / attempted, "requests": attempted - len(record["cli_s"]),
                 "op_samples": len(latency), "op_tail_percentile": pct,
                 "cli_invocations": len(record["cli_s"]),
                 "setup_samples_s": record["setup_s"],
                 "setup_cpu_samples_s": record["setup_cpu_s"], "cli_samples_s": record["cli_s"]})
    if args.trace:
        metrics = dict(worker["layers"])
        metrics["cli.median_s"] = statistics.median(record["cli_s"])
        metrics["cli.invocations"] = len(record["cli_s"])
        metrics["cli.stdout_bytes"] = record["cli_bytes"]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        metrics = {
            "throughput": (worker["units_done"] / sum(worker["pass_cpu_s"]), "1/s"),
            "op_p50_ms": (statistics.median(latency), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "setup_s": (statistics.median(record["setup_s"]), "s"),
            "peak_rss_mb": (worker["peak_rss_kb"] / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}.{'trace' if args.trace else 'e2e'}.json"
    (OUT_DIR / name).write_text(json.dumps({"meta": meta, "result": result,
                                            "latencies_ms": worker["latencies_ms"]}) + "\n")
    print("# run " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ns_per_elem"):
        return "ns"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
