"""End-to-end benchmark entry point: one workload, one run.

    python3 benchmarks/e2e/run.py --workload ieee118_session --seed 1 \
        --seconds 24 --trace 0

``--trace 0`` measures the six end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that produces the per-layer
numbers (see ``layers.py``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it print every metric with its unit, the raw ``bench.*`` numbers and the
environment.  ``run.sh`` runs all four workloads both ways.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: ops run (and checked) before the measured loop starts
WARMUP_OPS = 5
#: what ``--smoke`` measures per workload
SMOKE_OPS = 5


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` so set/dict iteration order —
    and with it the program's allocation pattern — is the same every run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from yardstick import Y_REF_MS

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
        "Y_REF_MS": Y_REF_MS,
    }


def paired_setup_seconds(workload_cls, seed: int, yard, repeats: int):
    """``repeats`` from-scratch set-ups, each bracketed by yardstick
    readings; returns the last (live) workload and the normalised seconds.

    Every repeat uses the same seed, so each builds the same inputs; the
    generator of the last one carries on into the measured loop.
    """
    from yardstick import Y_REF_MS

    wl, secs = None, []
    for _ in range(repeats):
        if wl is not None:
            wl.close()
        y0, _ = yard.reading(3)
        t0 = time.perf_counter()
        wl = workload_cls(seed)
        wl.setup()
        dt = time.perf_counter() - t0
        y1, _ = yard.reading(3)
        secs.append(dt / (0.5 * (y0 + y1)) * Y_REF_MS / 1e3)
    return wl, secs


class Loop:
    """The measured closed loop ``y0, op1, y1, op2, y2, …`` of one caller."""

    def __init__(self, wl, yard):
        self.wl, self.yard = wl, yard
        self.op_wall: list[float] = []
        self.op_cpu: list[float] = []
        self.yards: list[float] = []        # yardstick wall readings
        self.yards_cpu: list[float] = []    # … and their CPU time
        self.vm: list[float] = []
        self.va: list[float] = []
        self.kept: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_op(self, inp, *, measured: bool) -> None:
        """One op and its check.  An op that raises counts as failed (its
        time up to the raise still enters the loop's samples)."""
        wl = self.wl
        self.attempted += 1
        out, why = None, ""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:  # the loop must survive to report the count
            why = f"op raised {exc!r}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if measured:
            self._read_yardstick()
            self.op_wall.append(wall)
            self.op_cpu.append(cpu)
        if out is not None:
            chk = wl.check(inp, out)
            if not chk.ok:
                why = chk.why
            if measured:
                self.vm.append(chk.vm_rmse)
                self.va.append(chk.va_rmse)
                if (len(self.op_wall) - 1) % wl.verify_every == 0:
                    self.kept.append((inp, out))
        if why:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(why)

    def _read_yardstick(self) -> None:
        wall, cpu = self.yard.reading(self.wl.yard_reps)
        self.yards.append(wall)
        self.yards_cpu.append(cpu)

    def measure(self, seconds: float, *, max_ops: int | None = None,
                warmup: int = WARMUP_OPS) -> None:
        wl = self.wl
        for _ in range(warmup):
            self.run_op(wl.next_input(), measured=False)
        gc.collect()
        gc.freeze()
        self._read_yardstick()
        deadline = time.perf_counter() + seconds
        # at least two measured ops: the quantiles need them
        while time.perf_counter() < deadline or len(self.op_wall) < 2:
            self.run_op(wl.next_input(), measured=True)
            if max_ops is not None and len(self.op_wall) >= max_ops:
                break


def end_to_end(loop: Loop, setup_secs) -> tuple[dict, dict]:
    """The six end-to-end metrics and the raw ``bench.*`` companions."""
    from yardstick import normalised_ms, paired_ratios, raw_numbers

    metrics = {
        "op_norm_ms": (normalised_ms(loop.op_wall, loop.yards), "ms"),
        "cpu_norm_ms": (normalised_ms(loop.op_cpu, loop.yards_cpu), "ms"),
        "setup_s": (statistics.median(setup_secs), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "vm_rmse_pu": (statistics.fmean(loop.vm), "pu"),
        "va_rmse_rad": (statistics.fmean(loop.va), "rad"),
    }
    bench = raw_numbers(loop.op_wall, loop.op_cpu, loop.yards)
    bench["bench.ratio_p50"] = statistics.median(
        paired_ratios(loop.op_wall, loop.yards))
    bench["bench.setup_norm_s"] = list(setup_secs)
    return metrics, bench


def run(args) -> int:
    from workloads import WORKLOADS
    from yardstick import Yardstick

    cls = WORKLOADS[args.workload]
    yard = Yardstick()
    env = environment(args.seed)

    if args.trace:
        import layers

        wl = cls(args.seed)
        wl.setup()
        try:
            result = layers.traced_run(
                wl, yard, seconds=args.seconds,
                max_ops=SMOKE_OPS if args.smoke else layers.TRACE_OPS,
                out_dir=OUT_DIR,
            )
        finally:
            wl.close()
        metrics = {k: (v, layers.UNITS[k]) for k, v in result.metrics.items()}
        attempted, failed = result.attempted, result.failed
        problems = result.problems
        extra = {"computed_per_op_ms": result.computed}
    else:
        repeats = 1 if args.smoke else cls.setup_repeats
        wl, setup_secs = paired_setup_seconds(cls, args.seed, yard, repeats)
        try:
            loop = Loop(wl, yard)
            if args.smoke:
                loop.measure(args.seconds, max_ops=SMOKE_OPS, warmup=1)
            else:
                loop.measure(args.seconds)
            problems = list(loop.failures)
            if loop.kept:
                problems += wl.verify(loop.kept)
            else:
                problems.append("no op succeeded")
        finally:
            wl.close()
        metrics, extra = end_to_end(loop, setup_secs)
        attempted, failed = loop.attempted, loop.failed

    correct = failed == 0 and not problems
    print(f"# workload {args.workload}  trace={int(args.trace)}  smoke={args.smoke}")
    print(f"# why {cls.why}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print("# bench " + json.dumps(extra, sort_keys=True))
    print(f"# ops_attempted {attempted}  ops_failed {failed}")
    for msg in problems:
        print(f"# INCORRECT {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_OPS} ops, one set-up; numbers gate nothing")
    args = ap.parse_args(argv)

    _pin_hash_seed()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
