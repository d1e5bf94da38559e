"""One cold repetition of a workload, in a process of its own.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there until plucker is imported and the
inputs exist.  Times are reported raw and scaled to a fixed machine speed
(see ``speed``); probe ticks are left out of the raw times.  CPU time and
peak memory include the worker's own child processes (plucker's ``--jobs``
pool), so work moved onto more cores still counts.  Prints one JSON line.
Checks that fail are counted, not raised; an exception in the solve counts
as one more failed check.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

# Probe ticks right after set-up (about 25-45 ms), which scale set-up time
# and stand in for the solve's own ticks when it is shorter than one period.
SETUP_TICKS = 20
# Largest share of a traced solve the benchmark's own code may take (it takes
# 0-4.3%).  A layer call that ``spans.instrument`` misses, say one made through
# an alias, lands in the self time of its caller; when that caller is the
# benchmark, the share grows past this and the run counts a failed check.
BENCH_SHARE_MAX = 0.10


def main(argv: list[str]) -> int:
    workload, seed, traced, spawn = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])

    import metrics
    import speed
    import workloads  # imports every plucker layer

    make_inputs, solve = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    setup_s = time.monotonic() - spawn
    after_setup = speed.SpeedProbe()
    after_setup.sample(SETUP_TICKS)

    checks = workloads.Checks()
    bench = workloads.NullTracer()
    during = speed.SpeedProbe()
    if traced:
        import spans

        # Span times read the probe's clock, which leaves its ticks out.
        bench = spans.Tracer(f"{workload}-seed{seed}-pid{os.getpid()}", during.clock)
        spans.instrument(bench, workloads.TARGETS)

    start = time.perf_counter()
    with during:
        if traced:
            bench.open("bench")
        try:
            solve(inputs, bench, checks)
        except Exception:  # noqa: BLE001 -- any crash of the program is a failed check
            traceback.print_exc()
            checks.fail("exception: " + traceback.format_exc().strip().splitlines()[-1])
        if traced:
            bench.close_all()
    solve_s = time.perf_counter() - start - during.wall
    usage = [resource.getrusage(who)
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    cpu_s = sum(u.ru_utime + u.ru_stime for u in usage) - after_setup.cpu - during.cpu
    scale = (during if during.ticks else after_setup).scale

    layers = None
    if traced:
        from plucker.invariant_ring import GLOBAL_CACHE

        layers = metrics.layer_metrics(spans.span_times(bench.spans), bench.counters,
                                       GLOBAL_CACHE.stats(), len(bench.spans), solve_s)
        share = layers["bench.self_s"] / solve_s
        checks.expect(f"benchmark's own share of the traced solve, {share:.1%}, "
                      f"at most {BENCH_SHARE_MAX:.0%}", share <= BENCH_SHARE_MAX, True)
        os.makedirs(".perfbench_out", exist_ok=True)
        bench.write(os.path.join(".perfbench_out", f"{workload}.trace.jsonl"))

    result = {
        "setup_s": setup_s * after_setup.scale,
        "solve_s": solve_s * scale,
        "cpu_s": cpu_s * scale,
        "peak_rss_mb": max(u.ru_maxrss for u in usage) / 1024,
        "raw_setup_s": setup_s,
        "raw_solve_s": solve_s,
        "raw_cpu_s": cpu_s,
        "probe_s": speed.REF_S / scale,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_rate": checks.error_rate,
        "failures": checks.failures,
    }
    if layers is not None:
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
