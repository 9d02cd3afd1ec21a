"""rclift benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload lift_cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another

The benchmark imports ``rclift`` from the checkout's ``src`` directory and
exits with code 2 when there is none.  Workloads are described in
``workloads.py``; the metric names and units come from ``BENCHMARK.json``.

Each workload is a closed loop with one client: one operation runs at a
time and the next starts when it ends.  First comes the untimed warm-up:
a set-up of its own and one operation.  The loop then goes through whole
instance cycles (an instance's whole operation sequence) and stops at the
end of the first cycle that ends after ``--seconds`` (set-up time not
counted), but not before ``MIN_CYCLES`` cycles.  Set-up generates the
inputs from ``--seed`` before the loop and again after every cycle, into
fresh directories that must come out byte for byte the same.  BLAS runs
one thread (see ``BLAS_THREADS``), recorded with the environment.

The host is shared.  Its speed switches between states up to twice as
fast as each other, some lasting less than one suite run, so unscaled run
times of the same code spread by a third.  While the timed loop runs, an
interval timer therefore interrupts it every ``REFERENCE_PERIOD_S``
seconds to time a fixed reference task that does not use rclift (float
formatting and a dense SVD, the two kinds of work rclift's time goes to),
so that the task samples the machine during the measured work itself.
Operation and set-up times leave out the task's own time.  Gated times are
scaled by ``REFERENCE_S`` over the run's mean reference time: they are
seconds on a machine where the reference task takes ``REFERENCE_S``.  A
change to rclift moves them in full, while a change in machine speed moves
the reference task too and cancels out.  Gated times are means, not
medians: a median of samples taken in two states jumps between them, while
a mean weights each state by the time the run spent in it, the same way for
the operations and the reference task.  Set-up time, sampled a few times
a run, is the exception: it is the median, so that one set-up caught by a
burst does not move it.  Unscaled times and per-kind medians are printed as
information.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median time of one set-up (generating and writing the
  inputs), over the set-ups spread through the run, scaled;
* ``cycle_s``: mean time of one instance's whole operation sequence (on
  ``suite50``, of one suite run): the run's summed operation time over its
  cycle count, scaled;
* ``success_frac``: share of attempted operations that succeed.  An
  operation fails when it raises, exits with another code than expected,
  or its output check fails.  A forged solution that ``verify`` accepts is
  a failed operation;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

Lines before the last one give, as information, each operation kind's
median with its sample count (``suite_s``, ``solve_p50_s``,
``verify_p50_s``, ``report_p50_s``), the failure share and the environment.

``--trace 1`` runs the warm-up, set-up once under the tracer, then three
passes over the first instance's operations: traced, untraced, traced.
It reports per-layer metrics over the traced set-up and first traced pass:
``<module>.<function>.calls|s|self_s`` for rclift's public functions,
``numpy.linalg.<fn>.calls`` for the counted numpy entries, the degree sweep
``<function>.deg<N>_s``, the tracing overhead (mean traced minus untraced
pass time) and the span count.  The two traced passes must give the same
exact call counts, every suite report the same bytes, and set-up must make
every instance-generator call a pass makes, as often.  Spans are written to
``.bench_work/spans-<workload>-<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
true when set-up repeated byte for byte, every honest operation passed its
check, and the self-checks above held; ``failed`` also counts forged
solutions that were accepted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# One BLAS thread per client.  The matrices are small, and on a shared
# two-core machine a second BLAS thread doubled the median Nehari solve
# time and tripled its spread.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Typical time of the reference task on the 2-vCPU x86-64 virtual machine
# the benchmark was written on; gated times are scaled to that speed.
REFERENCE_S = 0.018
# Wall seconds between two runs of the reference task in the timed loop: at
# about 18 ms a run, the task takes a tenth of the loop.  Sampled after each
# operation instead, the task missed changes of speed within an 11 s suite
# run, and scaling made suite50's spread worse, not better.
REFERENCE_PERIOD_S = 0.2
# Fewest whole cycles a timed run makes, however short --seconds is: a
# suite50 cycle takes about 11 s, and a suite run slowed by a burst on the
# host then moves the run's mean by a third of its delay, not a half.
MIN_CYCLES = 3


def _median_line(name: str, values: list[float]) -> str:
    """Median with its sample count, and the highest percentile that has at
    least ten samples beyond it (information only)."""
    ordered = sorted(values)
    n = len(ordered)
    tail = "none (fewer than 20 samples)"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            tail = f"p{p:g} = {ordered[math.ceil(p / 100 * n) - 1]:.6g} s"
            break
    return f"{name}: {statistics.median(ordered):.6g} s (median, n={n}; {tail})"


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment(args, nproc: int, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": threads,
        "blas_threads_reported": _blas_threads(),
        "nproc": nproc,
    }


class Reference:
    """The reference task, run from a SIGALRM handler every
    REFERENCE_PERIOD_S seconds while `sampling()` is active."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.floats = rng.standard_normal(10000).tolist()
        self.matrix = rng.standard_normal((160, 160))
        self.samples: list[float] = []
        self.spent = 0.0

    def _run(self, *_signal) -> None:
        import numpy as np

        t0 = time.perf_counter()
        json.dumps([repr(x) for x in self.floats])
        np.linalg.svd(self.matrix)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def clock(self) -> float:
        """Wall seconds that leave out the reference task's own time."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no reference run came in between
                return now - spent

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _setup(wl, d: Path, clock=time.perf_counter) -> tuple[float, dict[str, bytes]]:
    """One set-up into d; returns its time on `clock` and the bytes it wrote."""
    d.mkdir(parents=True)
    t0 = clock()
    wl.setup(d)
    elapsed = clock() - t0
    return elapsed, {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def run_timed(wl, work: Path, seconds: float, spec: dict) -> dict:
    from workloads import run_op

    with Reference().sampling():  # the warm-up warms the reference task too
        warm_ok = wl.warm_up(work / "warmup")
    reference = Reference()
    with reference.sampling():
        clock = reference.clock
        inputs = work / "inputs"
        elapsed, written = _setup(wl, inputs, clock)
        setup_times, repeatable = [elapsed], True
        ops = wl.ops(inputs)

        records, cycles = [], 0
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            op = ops[i % len(ops)]
            wall, passed = run_op(op, clock)
            records.append((op, wall, passed))
            i += 1
            if i % len(ops) == 0 or ops[i % len(ops)].group != op.group:
                cycles += 1
                # Set up again after every cycle, so that setup_s samples the
                # machine across the run rather than at one moment.
                again = work / f"setup{len(setup_times)}"
                elapsed, rewritten = _setup(wl, again, clock)
                shutil.rmtree(again)
                setup_times.append(elapsed)
                repeatable = repeatable and rewritten == written
                deadline += elapsed
                if cycles >= MIN_CYCLES and time.perf_counter() >= deadline:
                    break

    by_kind: dict[str, list[float]] = {}
    for op, wall, _ in records:
        by_kind.setdefault(op.kind, []).append(wall)
    attempted = len(records)
    failed = sum(not passed for _, _, passed in records)
    for kind, walls in by_kind.items():
        print(_median_line("suite_s" if kind == "suite" else f"{kind}_p50_s", walls))
    print(f"cycles: {cycles}; set-ups: {len(setup_times)}; fail_frac: "
          f"{failed / attempted:.6g} ({failed} of {attempted} operations)")
    setup_raw = statistics.median(setup_times)
    cycle_raw = sum(wall for _, wall, _ in records) / cycles
    scale = REFERENCE_S / statistics.fmean(reference.samples)
    print(f"reference task: {statistics.fmean(reference.samples):.6g} s "
          f"(mean, n={len(reference.samples)}); "
          f"scale {scale:.6g}; unscaled setup_s {setup_raw:.6g} s, cycle_s {cycle_raw:.6g} s")
    values = {
        "setup_s": setup_raw * scale,
        "cycle_s": cycle_raw * scale,
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    honest_ok = all(passed for op, _, passed in records if op.honest)
    correct = repeatable and warm_ok and honest_ok and wl.consistent()
    return _result(correct, attempted, failed, values, spec["end_to_end"])


def _pass(ops) -> tuple[float, list[bool]]:
    """Run ops once; returns their summed time and whether each passed."""
    from workloads import run_op

    results = [run_op(op) for op in ops]
    return sum(wall for wall, _ in results), [passed for _, passed in results]


def run_traced(wl, work: Path, spec: dict, seed: int) -> dict:
    from tracing import Tracer
    from workloads import degree_sweep

    warm_ok = wl.warm_up(work / "warmup")
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    tracer = Tracer()
    with tracer.installed():
        wl.setup(inputs)
    after_setup = tracer.call_counts()
    ops = [op for op in wl.ops(inputs) if op.group == 0]

    with tracer.installed():
        traced_s, traced_ok = _pass(ops)
    first = {k: v - after_setup.get(k, 0) for k, v in tracer.call_counts().items()
             if v != after_setup.get(k, 0)}
    # The untraced pass runs between the traced ones, so that a steady
    # drift in machine speed cancels out of the overhead.
    plain_s, plain_ok = _pass(ops)
    second_tracer = Tracer()
    with second_tracer.installed():
        second_s, second_ok = _pass(ops)
    counts_repeat = first == second_tracer.call_counts()
    if not counts_repeat:
        print("self-check failed: call counts differ between the traced passes",
              file=sys.stderr)
    generated = {k: v for k, v in first.items() if k.startswith("generators.")}
    setup_covers = all(after_setup.get(k) == v for k, v in generated.items())
    if not setup_covers:
        print(f"self-check failed: a pass makes generator calls {generated} that set-up "
              f"does not make as often", file=sys.stderr)
    numpy_pass = {k: v for k, v in sorted(first.items()) if k.startswith("numpy.")}
    print(f"numpy calls in one traced pass: {json.dumps(numpy_pass)}")
    overhead = (traced_s + second_s) / 2 - plain_s
    print(f"tracing overhead: {overhead:.6g} s (traced passes {traced_s:.6g} s and "
          f"{second_s:.6g} s, untraced {plain_s:.6g} s)")

    sweep = degree_sweep(seed)
    values = {"trace.overhead_s": overhead,
              "trace.spans": len(tracer.span_start), **sweep}
    stats = {"calls": tracer.calls, "s": tracer.total_s, "self_s": tracer.self_s}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        if layer.startswith("numpy."):
            values[name] = tracer.numpy_calls.get(layer, 0)
        else:
            values[name] = stats[stat].get(layer, 0 if stat == "calls" else 0.0)

    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:20]
    print("self time by layer: " + json.dumps({k: round(v, 6) for k, v in top}))
    spans = WORK / f"spans-{wl.name}-{seed}.npz"
    tracer.write_spans(spans)
    print(f"spans: {spans.relative_to(ROOT)}")

    outcomes = [(op, ok) for run in (traced_ok, plain_ok, second_ok) for op, ok in zip(ops, run)]
    failed = sum(not ok for _, ok in outcomes)
    honest_ok = all(ok for op, ok in outcomes if op.honest)
    correct = warm_ok and honest_ok and counts_repeat and setup_covers and wl.consistent()
    return _result(correct, len(outcomes), failed, values, spec["per_layer"])


def _result(correct: bool, attempted: int, failed: int, values: dict, declared: list) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def _run_all(args) -> int:
    """Run every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "rclift" / "__init__.py").is_file():
        print(f"error: no rclift package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, BLAS_THREADS)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)} or all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print("environment: " + json.dumps(_environment(args, nproc, threads)))
    wl = WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            result = run_traced(wl, work, spec, args.seed)
        else:
            result = run_timed(wl, work, args.seconds, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, value in wl.info().items():
        print(f"{key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
