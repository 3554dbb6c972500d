"""Benchmark of hennion-lab: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload process_mixture --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics (setup_s, run_s, op_ms_p50, peak_rss_mb); with ``--trace 1`` it
carries the per-layer metrics of one traced round, and the spans are
written to ``perfbench/out/<workload>/spans.npz``.  See README.md.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


T_TOP = time.perf_counter()
AGE_AT_TOP = _process_age()

# One BLAS/OpenMP thread and serial streams: the kernels are 2x2 to 4x4, so
# extra threads only add contention on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HENNION_LAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _run_rounds(workload, clock, seconds: float) -> dict:
    """Whole rounds until the next one would end after ``seconds``."""
    rounds, errors = [], []
    attempted = failed = 0
    first = time.perf_counter()
    while True:
        done_before = len(clock.durations)
        t0 = time.perf_counter()
        try:
            workload.run_round(clock)
            ok = True
        except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
            clock.abandon()
            traceback.print_exc()
            ok = False
        t1 = time.perf_counter()
        rounds.append(t1 - t0)
        ops = ", ".join(f"{1e3 * d:.0f}" for d in clock.durations[done_before:])
        print(f"round {len(rounds)}: {t1 - t0:.3f} s; op ms: {ops}", file=sys.stderr)
        attempted += workload.ops_per_round
        failed += workload.ops_per_round - (len(clock.durations) - done_before)
        if ok:
            errors += workload.check()
        if t1 - first + statistics.fmean(rounds) > seconds:
            break
    return {"rounds": rounds, "attempted": attempted, "failed": failed, "errors": errors}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hennion_lab", "__init__.py")):
        print(f"no hennion_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import hennion_lab.expcli  # noqa: F401 - the CLI imports every module

    import_s = time.perf_counter() - t

    from tracing import OpClock, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, "perfbench", "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    t = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    inputs_s = time.perf_counter() - t

    clock = OpClock()
    tracer = Tracer(clock) if args.trace else None

    def instrument(traced: bool) -> None:
        clock.uninstall()
        if tracer is not None:
            tracer.uninstall()
            if traced:
                tracer.install()
        if workload.clock:
            clock.install(*workload.clock)

    instrument(traced=bool(args.trace))
    workload.setup()
    setup_s = AGE_AT_TOP + (time.perf_counter() - T_TOP) - inputs_s

    if tracer is None:
        res = _run_rounds(workload, clock, args.seconds)
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(res["rounds"]), "s"),
            "op_ms_p50": (1e3 * statistics.median(clock.durations), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # one untraced round for the overhead, then one traced round
        instrument(traced=False)
        base = _run_rounds(workload, clock, 0.0)
        instrument(traced=True)
        res = _run_rounds(workload, clock, 0.0)
        instrument(traced=False)
        tracer.save(os.path.join(out_dir, "spans.npz"))
        metrics = {"import_s": (import_s, "s")}
        for name, value in tracer.per_layer().items():
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = (value, unit)
        metrics["trace.run_s"] = (res["rounds"][0], "s")
        metrics["trace.overhead_s"] = (res["rounds"][0] - base["rounds"][0], "s")
        for key in ("attempted", "failed", "errors"):
            res[key] += base[key]

    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not res["errors"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
