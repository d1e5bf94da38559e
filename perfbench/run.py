"""plucker benchmark: cold, isolated repetitions of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/plucker``.  Each
repetition is a fresh ``perfbench/worker.py`` process, started one at a time,
with ``src`` as its only ``PYTHONPATH`` entry and no ``PLUCKER_CACHE_DIR``, so
nothing is warm.  Repetitions start while their expected end lies within
``--seconds``.

With ``--trace 0`` the result carries the end-to-end metrics, the medians
over untraced repetitions; the times are scaled to a fixed machine speed (see
``speed.py``), and the context line gives the raw ones.  With ``--trace 1``
traced and untraced repetitions alternate; the result carries the per-layer
metrics of the traced repetition with the median solve time, and the
tracing overhead, the traced minus the untraced median scaled solve time.
Every exact check of every repetition counts toward ``attempted``; a
crashed, timed-out or silent worker counts as one failed check.  The last
line of standard output is the result; the line before it gives the Python
version, core count, commit, seed, number of repetitions and each metric's
quartiles over the repetitions.  Exits 2 when the tree has no plucker
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, per_layer_units, summarize

HERE = Path(__file__).resolve().parent
WORKLOADS = ("acceptance", "ideal_scale", "orbit_scale", "toric_scale")
# A run must end within 180 s whatever a worker does.
RUN_LIMIT_S = 170.0


def commit_of(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def worker_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PLUCKER_CACHE_DIR", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, traced: bool, timeout: float,
               env: dict) -> dict | None:
    """One worker process; its JSON result, or None if it did not give one."""
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", repr(spawn)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"worker printed no result: {lines[-1][:200]}", file=sys.stderr)
        return None


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    env = worker_env(root)
    start = time.monotonic()
    reps: list[tuple[bool, dict]] = []
    walls: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    while True:
        traced = trace and len(walls) % 2 == 1
        began = time.monotonic()
        res = run_worker(workload, seed, traced, RUN_LIMIT_S - (began - start), env)
        walls.append(time.monotonic() - began)
        if res is None:
            attempted += 1
            failed += 1
            failures.append("worker gave no result")
        else:
            attempted += res["attempted"]
            failed += res["failed"]
            failures.extend(res["failures"])
            reps.append((traced, res))
        elapsed = time.monotonic() - start
        both_kinds = not trace or len(walls) >= 2
        if both_kinds and elapsed + statistics.median(walls) > seconds \
                or elapsed > RUN_LIMIT_S / 2:
            break
    plain = [res for traced, res in reps if not traced]
    traced_reps = [res for traced, res in reps if traced]
    if not plain or trace and not traced_reps:
        raise RuntimeError("no repetition of the needed kind gave a result")
    if trace:
        # Per-layer values all come from the traced repetition with the median
        # traced solve time, so its layer self times add up to its solve time.
        traced_reps.sort(key=lambda r: r["raw_solve_s"])
        values = dict(traced_reps[(len(traced_reps) - 1) // 2]["layers"])
        values["trace_overhead_s"] = \
            statistics.median(r["solve_s"] for r in traced_reps) \
            - statistics.median(r["solve_s"] for r in plain)
        stats = {name: summarize(r["layers"][name] for r in traced_reps)
                 for name in traced_reps[0]["layers"]}
    else:
        stats = {name: summarize(r[name] for r in plain)
                 for name in ("solve_s", "cpu_s", "setup_s", "peak_rss_mb",
                              "raw_solve_s", "raw_cpu_s", "raw_setup_s", "probe_s")}
        values = {name: stats[name]["median"] for name in END_TO_END}
    return {"attempted": attempted, "failed": failed, "failures": failures[:10],
            "repetitions": len(reps), "stats": stats,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "plucker" / "__init__.py").is_file():
        print(f"error: no src/plucker under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = per_layer_units() if args.trace else END_TO_END
    for failure in outcome["failures"]:
        print(f"failed check: {failure}", file=sys.stderr)
    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit_of(root), "repetitions": outcome["repetitions"],
        "quartiles": outcome["stats"]}}))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["values"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
