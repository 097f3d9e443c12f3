"""One benchmark pass, in a process of its own.

Usage (normally started by run.py):

    python3 bench/worker.py --workload verify-fixtures --seed 1 \
        --t0 <monotonic time before spawn> --work <work dir> [--trace]

A pass starts cold: the library memoises label-engine results in-process,
and a CLI user pays for them on every invocation.  The worker imports
the library from ``src/`` of the checkout it sits in, sets the workload
up, runs its operations once in seed-shuffled order and prints one JSON
line with the pass's timings, checked outcomes and, when traced, its
per-layer figures.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import signal
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_library():
    """Import ``mixedqec`` from this checkout's ``src/``, never from an
    installed copy, so the benchmark measures the tree it sits in."""
    pkg = ROOT / "src" / "mixedqec"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: library sources not found at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import mixedqec
    if Path(mixedqec.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported mixedqec from {mixedqec.__file__}, not {pkg}")
    return mixedqec


# Machine-speed correction.  On a shared host this machine's speed drifts
# by tens of percent over a minute, and interpreter-bound code drifts
# most; the median over one run's passes cannot remove a drift that lasts
# as long as the run.  So a pass times a fixed reference loop every
# PROBE_INTERVAL_S and divides its wall time by the loop's slowdown raised
# to the workload's exponent (workloads.SPEED_EXPONENT).
REFERENCE_S = 0.003  # the loop's time on an unloaded 2-vCPU Intel Xeon VM
PROBE_INTERVAL_S = 0.2
# set-up is interpreter start and imports, as interpreter-bound as the
# label engine
SETUP_SPEED_EXPONENT = 0.7


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of tuple and dict work,
    the kind of work the label engine does, with the collector off.
    Part of the benchmark: changing it changes every corrected time."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        for i in range(15000):
            key = (i % 7, i % 11, i % 13)
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedProbe:
    """Times reference_loop() from a SIGALRM handler every
    PROBE_INTERVAL_S while active, so the samples cover the pass evenly
    in time.  ``busy`` is the time the handler took from the pass."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_loop())
        self.busy += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def corrected(seconds: float, samples: list[float], exponent: float) -> float:
    """``seconds`` scaled to the speed at which reference_loop() takes
    REFERENCE_S, given loop times sampled while ``seconds`` elapsed."""
    slowdown = statistics.median(samples) / REFERENCE_S
    return seconds / slowdown ** exponent


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer self times and counters of one traced pass."""
    import spans
    self_s = tracer.self_times()
    out = {f"{name}_s": self_s.get(name, 0.0) for name in spans.SPAN_NAMES}
    for name in spans.COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    for rate, count, span in (("clique.nodes_per_s", "clique.search_nodes", "clique.search"),
                              ("verifier.symbolic_errors_per_s", "verifier.symbolic_errors",
                               "verifier.symbolic"),
                              ("verifier.numeric_errors_per_s", "verifier.numeric_errors",
                               "verifier.numeric")):
        busy = self_s.get(span, 0.0)
        out[rate] = out[count] / busy if busy > 0 else 0.0
    return out


def run_pass(workload: str, seed: int, work: Path, size: str = "full",
             trace: bool = False, spans_out: Path | None = None,
             t0: float | None = None, setup_only: bool = False) -> dict:
    t0 = time.monotonic() if t0 is None else t0
    mq = import_library()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        ops = workloads.setup(workload, mq, ROOT, size, work)
        random.Random(seed).shuffle(ops)
        setup_wall_s = time.monotonic() - t0
        setup = {"setup_s": corrected(setup_wall_s, [reference_loop() for _ in range(5)],
                                      SETUP_SPEED_EXPONENT),
                 "setup_wall_s": setup_wall_s}
        if setup_only:
            return setup

        outcomes = []
        # traced passes give raw per-layer times and take no samples
        probe = SpeedProbe()
        with probe if not trace else contextlib.nullcontext():
            start = time.perf_counter()
            for op in ops:
                try:
                    out = op.run()
                except Exception as exc:  # a crashing operation is a failed one
                    traceback.print_exc(file=sys.stderr)
                    out = workloads.Outcome(False, f"{type(exc).__name__}: {exc}", 0, 0)
                outcomes.append((op.name, out))
            wall = time.perf_counter() - start - probe.busy
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy
    samples = probe.samples or [reference_loop()]
    result = {
        **setup,
        "pass_s": corrected(wall, samples, workloads.SPEED_EXPONENT[workload]),
        "pass_wall_s": wall,
        "reference_s": statistics.median(samples),
        "probe_samples": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [{"name": name, "ok": out.ok, "detail": out.detail}
                for name, out in outcomes],
        "K": sum(out.K for _, out in outcomes),
        "singleton": sum(out.singleton for _, out in outcomes),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if spans_out is not None:
            tracer.write(spans_out)
    return result


def main(argv=None) -> int:
    t_start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True,
                   help="work directory for the pass; removed at the end")
    p.add_argument("--t0", type=float, default=None,
                   help="time.monotonic() of the parent just before it started "
                        "this process; set-up is timed from it")
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up; used to sample set-up time")
    args = p.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.work, size=args.size,
                      trace=args.trace, spans_out=args.spans_out,
                      t0=t_start if args.t0 is None else args.t0,
                      setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
