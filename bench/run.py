"""Benchmark runner for mixedqec.

    python3 bench/run.py --workload verify-fixtures --seed 1 --seconds 40 --trace 0

Runs passes of one workload, each in a fresh Python process and one
after another (one client, closed loop), for about ``--seconds``
seconds, and prints the medians.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine, every pass and the
operations that failed.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
See bench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# BLAS threads for every pass: one, so that a pass's time does not
# depend on what else the machine runs; at most nproc in any case
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is sampled this many times per run in set-up-only processes,
# on top of the set-up of every pass, and reported as a median
SETUP_SAMPLES = 5
# a run must end within 180 s whatever --seconds asks for
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
                    "k_over_singleton": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in spans.SPAN_NAMES}
    for name in spans.COUNTERS:
        units[name] = "bytes" if name.endswith("bytes") else "count"
    units.update({"clique.nodes_per_s": "1/s", "verifier.symbolic_errors_per_s": "1/s",
                  "verifier.numeric_errors_per_s": "1/s",
                  "trace.pass_s": "s", "trace.overhead_s": "s"})
    return units


def machine(numpy_version: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {name: BLAS_THREADS for name in BLAS_ENV},
        "platform": platform.platform(),
        "git_commit": commit,
    }


class PassRunner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, size: str, started: float):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.started = started
        self.env = {**os.environ, **{name: BLAS_THREADS for name in BLAS_ENV}}
        # every pass sees the library's default dimension cap
        self.env.pop("MIXEDQEC_DIM_CAP", None)
        self.count = 0

    def run(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        work = ROOT / ".bench_work" / f"{os.getpid()}-{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--size", self.size, "--work", str(work)]
        if trace:
            out = ROOT / ".bench_out" / f"{self.workload}.spans.json"
            cmd += ["--trace", "--spans-out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: a {self.workload} pass did not end within "
                             f"{timeout:.0f} s")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = wall
        result["traced"] = trace
        return result


def run_passes(runner: PassRunner, seconds: float, trace: bool) -> tuple[list, list]:
    """Set-up samples, then passes until the next one would end after
    ``seconds``.  With tracing, traced and untraced passes alternate and
    at least one of each runs."""
    setups = [runner.run(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    kinds = [True, False] if trace else [False]
    while True:
        traced = min(kinds, key=lambda k: sum(p["traced"] == k for p in passes))
        done = [p["wall_s"] for p in passes if p["traced"] == traced]
        elapsed = time.monotonic() - runner.started
        first_of_kind = not done
        if not first_of_kind and elapsed + max(done) > seconds:
            break
        passes.append(runner.run(trace=traced))
    return setups, passes


def summarize(setups: list[float], passes: list[dict], trace: bool) -> dict:
    """The result line: end-to-end metrics from untraced passes, or the
    per-layer metrics of traced passes with the tracing overhead."""
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops)
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        values = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "pass_s": statistics.median(p["pass_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "k_over_singleton": sum(p["K"] for p in plain) / sum(p["singleton"] for p in plain),
        }
        units = END_TO_END_UNITS
    else:
        traced = [p for p in passes if p["traced"]]
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.pass_s"] = statistics.median(p["pass_wall_s"] for p in traced)
        values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(
            p["pass_wall_s"] for p in plain)
        units = per_layer_units()
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_workload(workload: str, args) -> tuple[dict, dict]:
    """Run one workload; returns the record line and the result line."""
    runner = PassRunner(workload, args.seed, args.size, time.monotonic())
    setups, passes = run_passes(runner, args.seconds, bool(args.trace))
    result = summarize(setups, passes, bool(args.trace))
    ops = [op for p in passes for op in p["ops"]]
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine(passes[0]["numpy"]),
        "fail_ratio": result["failed"] / result["attempted"],
        "failures": [op for op in ops if not op["ok"]][:20],
        "setup_samples_s": setups,
        "passes": [{k: p[k] for k in ("traced", "setup_s", "pass_s", "pass_wall_s",
                                      "setup_wall_s", "reference_s", "probe_samples",
                                      "wall_s", "peak_rss_mb")}
                   for p in passes],
    }
    return record, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True,
                   help="shuffles the order of operations within each pass")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time per workload; passes start while they "
                        "are expected to fit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke runs each workload at reduced size, for tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mixedqec" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        record, result = run_workload(args.workload, args)
        print(json.dumps(record))
        print(json.dumps(result))
        return 0
    # all workloads: a record and a result line each, then one combined
    # result whose metric names are prefixed with the workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        record, result = run_workload(workload, args)
        print(json.dumps(record))
        print(json.dumps({"workload": workload, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
