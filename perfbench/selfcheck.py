"""Checks that the benchmark's own checks can fail.

    python3 perfbench/selfcheck.py

Each check runs the unmodified benchmark command in a copy of the checkout
under perfbench/out/:

1. A copy whose goldens hold one altered request digest (of a request the
   run executes) must report the run incorrect (failed > 0).
2. A copy whose CLI golden holds an altered stdout digest must fail every
   CLI invocation; this run is traced, so it also checks the per-layer
   metric names and units.
3. Both outputs must carry exactly the metrics BENCHMARK.json lists.
4. A copy holding only BENCHMARK.json and perfbench/ must exit non-zero
   without printing a result.
Exits 0 when all hold.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import OUT_DIR, ROOT, SRC
from run import SCHEDULE
from workloads import GOLDEN_DIR, draw_stream

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD = "mub-io"  # the fewest requests and the shortest pass
SEED = 1
IGNORE = shutil.ignore_patterns("out", "__pycache__", "*.pyc")


def make_copy(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=IGNORE)
    if with_src:
        shutil.copytree(SRC, dest / "src", ignore=IGNORE)
    return dest / GOLDEN_DIR.relative_to(ROOT)


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, listed: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
                         f" or units {[(k, got.get(k), u) for k, u in want.items()]}")


def alter_request_golden(goldens: Path) -> None:
    path = goldens / f"{WORKLOAD}.json"
    golden = json.loads(path.read_text())
    entry = draw_stream(golden, SEED)[0]  # an entry of the pool the run draws
    entry["digest"] = "0" * len(entry["digest"])
    path.write_text(json.dumps(golden))


def alter_cli_golden(goldens: Path) -> None:
    path = goldens / "cli.json"
    golden = json.loads(path.read_text())
    want = golden[WORKLOAD]["stdout_sha256"]
    golden[WORKLOAD]["stdout_sha256"] = "0" * len(want)
    path.write_text(json.dumps(golden))


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        copy = Path(tmp)
        alter_request_golden(make_copy(copy, with_src=True))
        res = result_of(run(copy, trace=0))
    if res["correct"] or res["failed"] < 1:
        raise SystemExit(f"an altered request golden went unnoticed: {res}")
    check_metrics(res, BENCH["end_to_end"])
    print(f"altered request golden: failed {res['failed']} of {res['attempted']}")

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        copy = Path(tmp)
        alter_cli_golden(make_copy(copy, with_src=True))
        res = result_of(run(copy, trace=1))
    if res["correct"] or res["failed"] != SCHEDULE.count("cli"):
        raise SystemExit(f"an altered CLI golden went unnoticed: {res}")
    check_metrics(res, BENCH["per_layer"])
    print(f"altered CLI golden: failed {res['failed']} of {res['attempted']}")

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        copy = Path(tmp)
        make_copy(copy, with_src=False)
        proc = run(copy, trace=0)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("a copy without the sources did not fail cleanly")
    print(f"copy without sources: exit {proc.returncode}, no result")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
