"""Smoke tests for the benchmark, at reduced size.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    record = json.loads(record_line)
    assert record["fail_ratio"] == 0
    for key in ("nproc", "cpu_model", "python", "numpy", "blas_threads", "git_commit"):
        assert record["machine"][key]
    if trace:
        assert {p["traced"] for p in record["passes"]} == {True, False}
        written = json.loads((ROOT / ".bench_out" / f"{workload}.spans.json").read_text())
        assert written["spans"]
        assert set(written["spans"][0]) == {"name", "start", "end", "parent"}


def test_tracing_wraps_every_binding_of_each_layer_function():
    code = (
        "import sys; sys.path[:0] = ['bench', 'src']\n"
        "import mixedqec, spans\n"
        "originals = {}\n"
        "for mod, fn, *_ in spans.LAYER_FUNCTIONS:\n"
        "    originals[id(getattr(sys.modules['mixedqec.' + mod], fn))] = fn\n"
        "assert spans.install(spans.Tracer()) > len(spans.SPAN_NAMES)\n"
        "left = [f'{n}.{a}' for n, m in sys.modules.items() if n.startswith('mixedqec')\n"
        "        for a, v in vars(m).items() if id(v) in originals]\n"
        "assert not left, left\n"
        "assert mixedqec.certificates.check_clique is mixedqec.clique.check_clique\n"
        "assert hasattr(mixedqec.clique.purity_set, '__wrapped__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_self_time_excludes_child_spans():
    tr = spans.Tracer()
    tr.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0],
                ["inner", 6.0, 7.0, 0], ["leaf", 3.0, 4.0, 1]]
    assert tr.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_wrong_expectation_raises_fail_ratio(monkeypatch, tmp_path):
    wrong = tuple(inst[:4] + (10 ** 6,) for inst in workloads.SEARCH_INSTANCES["smoke"])
    monkeypatch.setitem(workloads.SEARCH_INSTANCES, "smoke", wrong)
    res = worker.run_pass("search-loop", 1, tmp_path / "work", size="smoke")
    res["traced"] = False
    out = run.summarize([res["setup_s"]], [res], trace=False)
    assert out["failed"] / out["attempted"] > 0
    assert not out["correct"]


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "search-loop", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
