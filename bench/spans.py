"""Span recorder for traced benchmark passes.

Each layer function of the library is wrapped at every module attribute
the library calls it through, so calls between modules (for example
``certificates`` calling ``check_clique``) and calls inside one module
(``check_clique`` calling ``purity_set``) are both recorded.  Spans stay
in memory and are written out when the pass ends; per-layer figures are
derived from them afterwards.  Nothing under ``src/`` is changed.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import weakref
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent index) and counters of one pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.covered_keys: set = set()
        self.bases_seen: weakref.WeakSet = weakref.WeakSet()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the part of it
        covered by direct child spans (children never overlap, because a
        pass is single threaded)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [{"name": n, "start": s, "end": e, "parent": p}
                 for n, s, e, p in self.spans]
        path.write_text(json.dumps({"spans": spans, "counters": self.counters}))


# --- counters recorded at the span boundaries ----------------------------


def _count_errors(sys_, d: int) -> int:
    from mixedqec.errors import count_errors
    return count_errors(sys_, d - 1)


def _on_purity(tr: Tracer, args, kwargs, result) -> None:
    graphs = args[0] if args else kwargs["graphs"]
    tr.add("clique.purity_labels", math.prod(g.m ** g.n for g in graphs))
    tr.add("clique.purity_size", len(result))


def _on_covered(tr: Tracer, args, kwargs, result) -> None:
    from mixedqec.errors import MixedSystem
    graphs = tuple(args[0] if args else kwargs["graphs"])
    d = args[1] if len(args) > 1 else kwargs["d"]
    # the library memoises this set per process; count only the first,
    # computing call for each key, which is the one that scans errors
    if (graphs, d) in tr.covered_keys:
        return
    tr.covered_keys.add((graphs, d))
    tr.add("clique.covered_size", len(result))
    sys_ = MixedSystem.layered([(g.m, g.n) for g in graphs])
    tr.add("errors.enumerated", _count_errors(sys_, d))


def _on_search(tr: Tracer, args, kwargs, result) -> None:
    tr.add("clique.search_nodes", result.nodes_used)


def _code_and_d(args, kwargs):
    code = args[0] if args else kwargs["code"]
    d = args[1] if len(args) > 1 else kwargs.get("d")
    return code, code.d if d is None else d


def _on_symbolic(tr: Tracer, args, kwargs, result) -> None:
    code, d = _code_and_d(args, kwargs)
    tr.add("verifier.symbolic_errors", result.checked_errors)
    tr.add("errors.enumerated", _count_errors(code.system, d))


def _on_numeric(tr: Tracer, args, kwargs, result) -> None:
    code, d = _code_and_d(args, kwargs)
    sys_ = code.system
    tr.add("verifier.numeric_errors", result.checked_errors)
    tr.add("verifier.numeric_supports",
           sum(math.comb(sys_.n, k) for k in range(1, d)))
    # the support tensor T[u, k, v, l] of the largest scanned support
    if d > 1:
        dS = math.prod(sorted(sys_.dims)[-(d - 1):])
        tr.peak("verifier.numeric_tensor_bytes", (dS * code.K) ** 2 * 16)
    tr.add("errors.enumerated", _count_errors(sys_, d))


def _on_words(tr: Tracer, args, kwargs, result) -> None:
    tr.add("verifier.words_errors", result.checked_errors)


def _on_basis(tr: Tracer, args, kwargs, result) -> None:
    code = args[0]
    if code.clique is not None and code not in tr.bases_seen:
        tr.bases_seen.add(code)
        tr.add("graphstate.basis_bytes", code.system.total_dim * code.K * 16)


def _on_required(tr: Tracer, args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["P"]
    d = args[2] if len(args) > 2 else kwargs.get("d", 2)
    tr.add("projection.required_words", len(result))
    tr.add("errors.enumerated", _count_errors(spec.mixed_system(), d))


def _on_load(tr: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tr.add("certificates.bytes", os.path.getsize(path))


def _on_save(tr: Tracer, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.add("certificates.bytes", os.path.getsize(path))


# (module, function, span name, counter hook)
LAYER_FUNCTIONS = [
    ("clique", "purity_set", "clique.purity", _on_purity),
    ("clique", "covered_differences", "clique.covered", _on_covered),
    ("clique", "check_clique", "clique.check", None),
    ("clique", "closure", "clique.closure", None),
    ("clique", "search_clique", "clique.search", _on_search),
    ("verifier", "kl_verify_symbolic", "verifier.symbolic", _on_symbolic),
    ("verifier", "kl_verify_numeric", "verifier.numeric", _on_numeric),
    ("verifier", "kl_verify_words", "verifier.words", _on_words),
    ("verifier", "verify_stabilizer", "verifier.stabilizer", None),
    ("verifier", "stabilizer_eigenbasis", "verifier.eigenbasis", None),
    ("compose", "paste_distance2", "compose.paste", None),
    ("compose", "product_code", "compose.product", None),
    ("compose", "clique_stabilizer_rows", "compose.rows", None),
    ("projection", "project_code", "projection.project", None),
    ("projection", "required_detectable_set", "projection.required", _on_required),
    ("certificates", "load_certificate", "certificates.load", _on_load),
    ("certificates", "build_code", "certificates.build", None),
]

# (module, class, method, span name, counter hook)
LAYER_METHODS = [
    ("verifier", "Code", "basis", "graphstate.basis", _on_basis),
    ("certificates", "Certificate", "save", "certificates.write", _on_save),
]

SPAN_NAMES = [row[2] for row in LAYER_FUNCTIONS] + [row[3] for row in LAYER_METHODS]

# counters the hooks above record
COUNTERS = [
    "clique.purity_labels", "clique.purity_size", "clique.covered_size",
    "clique.search_nodes", "verifier.symbolic_errors", "verifier.numeric_errors",
    "verifier.numeric_supports", "verifier.numeric_tensor_bytes",
    "verifier.words_errors", "graphstate.basis_bytes", "projection.required_words",
    "certificates.bytes", "errors.enumerated",
]


def install(tracer: Tracer) -> int:
    """Wrap every layer function wherever a ``mixedqec`` module binds it;
    returns the number of bindings replaced.  Meant for a fresh process:
    the wrappers stay for the life of the interpreter."""
    import importlib
    replaced = 0
    for mod_name, fn_name, span, hook in LAYER_FUNCTIONS:
        original = getattr(importlib.import_module(f"mixedqec.{mod_name}"), fn_name)
        wrapper = tracer.wrap(span, original, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mixedqec" or name.startswith("mixedqec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    replaced += 1
    for mod_name, cls_name, meth, span, hook in LAYER_METHODS:
        cls = getattr(importlib.import_module(f"mixedqec.{mod_name}"), cls_name)
        setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), hook))
        replaced += 1
    return replaced
