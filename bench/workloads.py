"""The benchmark's workloads: what one pass runs and how it is checked.

Every workload is a list of operations built from fixed, verified
inputs.  ``setup`` locates and reads those inputs; each operation then
drives the library through its public functions, the way the CLI does,
and returns an ``Outcome`` whose ``ok`` says whether the checked output
was right.  The seed only shuffles the order of the operations.

Library functions are looked up on the ``mixedqec`` package at call
time (``mq.verify_certificate``), so a traced pass sees the wrappers the
tracer installs.
"""
from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify-fixtures", "search-loop", "grow-codes")

# How strongly each workload's pass time follows the slowdown of
# worker.reference_loop() when other load on the host slows the machine:
# the exponent of its speed correction.  Fitted over 20 to 30 runs of
# each workload on a shared 2-vCPU Intel Xeon VM.  NumPy-heavy work slows
# less than the interpreter-bound loop.
SPEED_EXPONENT = {"verify-fixtures": 0.7, "search-loop": 0.7, "grow-codes": 0.5}


@dataclass
class Outcome:
    ok: bool
    detail: str
    K: int
    singleton: int


@dataclass
class Operation:
    name: str
    run: Callable[[], Outcome]


# --- verify-fixtures ------------------------------------------------------

# reduced set for smoke runs: one clique, one stabilizer, one negative
SMOKE_FIXTURES = ("3_4_2_q4.json", "6_16_3_stab.json", "negatives/neg_wrong_K.json")


def _fixture_op(mq, path: Path, stored: dict, positive: bool) -> Operation:
    def run() -> Outcome:
        try:
            cert = mq.load_certificate(path)
            report = mq.verify_certificate(cert, path.parent)
        except (mq.certificates.CertificateError, ValueError) as exc:
            return Outcome(not positive, f"rejected: {exc}", 0, 0)
        problems = []
        if cert.hash != stored["content_hash"]:
            problems.append("recomputed content_hash differs from the stored one")
        if positive and report["verdict"] != "pass":
            problems.append(f"verdict {report['verdict']}: {report.get('failures')}")
        if not positive and report["verdict"] == "pass":
            problems.append("negative fixture verified")
        if not positive:
            return Outcome(not problems, "; ".join(problems) or "failed as expected", 0, 0)
        return Outcome(not problems, "; ".join(problems) or "pass", cert.K,
                       mq.singleton_bound(cert.system.dims, cert.d))
    return Operation(path.name if positive else f"negatives/{path.name}", run)


def _verify_fixtures(mq, root: Path, size: str, work: Path) -> list[Operation]:
    fixtures = root / "src" / "mixedqec" / "fixtures"
    paths = sorted(fixtures.glob("*.json")) + sorted(fixtures.glob("negatives/*.json"))
    if size == "smoke":
        paths = [fixtures / name for name in SMOKE_FIXTURES]
    if not paths:
        raise FileNotFoundError(f"no fixture certificates under {fixtures}")
    ops = []
    for path in paths:
        stored = json.loads(path.read_text())
        ops.append(_fixture_op(mq, path, stored, path.parent.name != "negatives"))
    return ops


# --- search-loop ----------------------------------------------------------

# (mode, d, n, node budget, K recorded for this budget).  Two layers of
# loop_graph(n, 2), so every particle is a ququart and the label space
# has 4^n elements.  The recorded K is what the unmodified search finds
# within the budget; a later search may find more, never less.
SEARCH_INSTANCES = {
    "full": (
        ("group", 3, 6, 1000, 8),
        ("group", 3, 7, 1000, 8),
        ("set", 3, 7, 1000, 32),
        ("group", 2, 4, 500, 16),
    ),
    "smoke": (
        ("group", 2, 3, 50, 0),
        ("set", 2, 3, 50, 0),
    ),
}


def _search_op(mq, mode: str, d: int, n: int, budget: int, recorded_K: int) -> Operation:
    def run() -> Outcome:
        graphs = (mq.loop_graph(n, 2), mq.loop_graph(n, 2))
        bound = mq.singleton_bound((4,) * n, d)
        res = mq.search_clique(graphs, d, target_K=bound + 1, budget=budget, mode=mode)
        report = mq.check_clique(res.clique)
        problems = []
        if not report.ok:
            problems.append(f"found clique fails check_clique: {report.witness}")
        if res.clique.K < recorded_K:
            problems.append(f"found K = {res.clique.K} < recorded {recorded_K}")
        detail = "; ".join(problems) or f"K = {res.clique.K} in {res.nodes_used} nodes"
        return Outcome(not problems, detail, res.clique.K, bound)
    return Operation(f"{mode}-d{d}-n{n}", run)


def _search_loop(mq, root: Path, size: str, work: Path) -> list[Operation]:
    return [_search_op(mq, *inst) for inst in SEARCH_INSTANCES[size]]


# --- grow-codes -----------------------------------------------------------

# (kind, output name, referenced fixtures, parameters)
GROW_OPERATIONS = {
    "full": (
        ("paste", "3_4_2_q4_paste3", ("3_4_2_q4.json",), {"blocks": 3, "block_dim": 2}),
        ("paste", "3_8_2_q8_paste2", ("3_8_2_q8.json",), {"blocks": 2, "block_dim": 2}),
        ("product", "3_4_2_q4_sq", ("3_4_2_q4.json", "3_4_2_q4.json"), {}),
        ("project", "5_9_2_q3_keep01", ("5_9_2_q3.json",), {"keep": {"5": [0, 1]}}),
    ),
    "smoke": (
        ("paste", "3_4_2_q4_paste1", ("3_4_2_q4.json",), {"blocks": 1, "block_dim": 2}),
        ("project", "5_9_2_q3_keep01", ("5_9_2_q3.json",), {"keep": {"5": [0, 1]}}),
    ),
}


def _grown_certificate(mq, kind: str, name: str, refs: tuple[str, ...],
                       params: dict, work: Path):
    """Build a new certificate the way the CLI's paste, product and
    project subcommands do, with references relative to ``work``."""
    if kind == "paste":
        base = mq.load_certificate(work / refs[0])
        base_code = mq.build_code(base, work)
        rows = mq.certificates.base_stabilizer_rows(base, base_code)
        res = mq.paste_distance2(rows, base_code, params["blocks"], params["block_dim"])
        cons = {"type": "pasting", "refs": [refs[0]], **params}
        return mq.Certificate(name, res.system, res.K, 2, cons), \
            {"rows": [list(r.text) for r in res.rows]}
    if kind == "product":
        a = mq.load_certificate(work / refs[0])
        mq.load_certificate(work / refs[1])  # the CLI loads both factors too
        cons = {"type": "product", "refs": list(refs)}
    else:
        a = mq.load_certificate(work / refs[0])
        ancilla = mq.build_code(a, work)
        spec = mq.ProjectorSpec.from_json(ancilla.system, {"keep": params["keep"]})
        cons = {"type": "projection", "ancilla": refs[0], "projector": spec.to_json()}
    tmp = mq.Certificate("_", mq.MixedSystem(((2,),)), 1, a.d, cons)
    code = mq.build_code(tmp, work)
    return mq.Certificate(name, code.system, code.K, a.d, cons), {}


def _grow_op(mq, kind: str, name: str, refs: tuple[str, ...], params: dict,
             work: Path) -> Operation:
    def run() -> Outcome:
        cert, extra = _grown_certificate(mq, kind, name, refs, params, work)
        problems = []
        report = mq.verify_certificate(cert, work)
        if report["verdict"] != "pass":
            problems.append(f"new certificate fails: {report.get('failures')}")
        cert.verification.update(extra)
        out = work / f"{name}.json"
        cert.save(out)
        stored = json.loads(out.read_text())["content_hash"]
        try:
            again = mq.load_certificate(out)
        except mq.certificates.CertificateError as exc:
            problems.append(f"reload rejected: {exc}")
        else:
            if again.hash != stored or stored != cert.hash:
                problems.append("content_hash changed across save and reload")
            report = mq.verify_certificate(again, out.parent)
            if report["verdict"] != "pass":
                problems.append(f"reloaded certificate fails: {report.get('failures')}")
        detail = "; ".join(problems) or f"K = {cert.K}, dims {list(cert.system.dims)}"
        return Outcome(not problems, detail, cert.K,
                       mq.singleton_bound(cert.system.dims, cert.d))
    return Operation(f"{kind}-{name}", run)


def _grow_codes(mq, root: Path, size: str, work: Path) -> list[Operation]:
    fixtures = root / "src" / "mixedqec" / "fixtures"
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for kind, name, refs, params in GROW_OPERATIONS[size]:
        for ref in refs:
            shutil.copyfile(fixtures / ref, work / ref)
        ops.append(_grow_op(mq, kind, name, refs, params, work))
    return ops


_BUILDERS = {
    "verify-fixtures": _verify_fixtures,
    "search-loop": _search_loop,
    "grow-codes": _grow_codes,
}


def setup(workload: str, mq, root: Path, size: str, work: Path) -> list[Operation]:
    """Read the workload's inputs and return its operations in a fixed
    order.  ``work`` is a directory the pass may write into."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in ("full", "smoke"):
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](mq, root, size, work)
