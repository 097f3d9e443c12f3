"""Serializable, re-verifiable code certificates.

A certificate records how a code is built (clique, stabilizer rows,
projection, product, or pasting), what is claimed for it, and the last
verification results.  Construction data is integers-only so the
canonical serialization hashes identically across platforms; the
verification block is mutable and excluded from the hash.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .algebra import PHASE_ONE, ModVec, Phase
from .bounds import bound_report
from .clique import CodingClique, check_clique, closure
from .compose import clique_stabilizer_rows, paste_distance2, pasted_code, product_code
from .errors import ConstructionInputError, MixedSystem, dim_cap
from .graphs import WeightedGraph, _json_int
from .projection import ProjectorSpec, project_code, required_detectable_set
from .verifier import (
    Code,
    StabilizerRow,
    check_tol,
    code_distance,
    kl_verify_numeric,
    kl_verify_symbolic,
    kl_verify_words,
    parse_stabilizer_row,
    stabilizer_eigenbasis,
)

SCHEMA = "mixedqec-cert/1"
TOOLKIT_VERSION = "0.1.0"

CONSTRUCTION_TYPES = ("composite_clique", "stabilizer", "projection",
                      "product", "pasting")


class CertificateError(Exception):
    """Malformed certificate content; distinct from verification failure."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_hash(system_json: dict, claimed: dict, construction: dict) -> str:
    payload = {"schema": SCHEMA, "system": system_json, "claimed": claimed,
               "construction": construction}
    return "sha256:" + hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass
class Certificate:
    name: str
    system: MixedSystem
    K: int
    d: int
    construction: dict
    verification: dict = field(default_factory=dict)
    toolkit_version: str = TOOLKIT_VERSION

    @property
    def hash(self) -> str:
        return content_hash(self.system.to_json(), {"K": self.K, "d": self.d},
                            self.construction)

    def to_json(self) -> dict:
        out = {
            "schema": SCHEMA,
            "name": self.name,
            "system": self.system.to_json(),
            "claimed": {"K": self.K, "d": self.d},
            "construction": self.construction,
            "toolkit_version": self.toolkit_version,
            "content_hash": self.hash,
        }
        if self.verification:
            out["verification"] = self.verification
        return out

    @staticmethod
    def from_json(obj: dict) -> "Certificate":
        if not isinstance(obj, dict):
            raise CertificateError("certificate must be a JSON object")
        if obj.get("schema") != SCHEMA:
            raise CertificateError(f"unsupported schema {obj.get('schema')!r}")
        for key in ("name", "system", "claimed", "construction"):
            if key not in obj:
                raise CertificateError(f"missing field {key!r}")
        try:
            system = MixedSystem.from_json(obj["system"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"bad system block: {exc}") from exc
        # n and dims may be omitted, but must not differ from what is
        # written; no other key may ride along unchecked and unhashed
        _known_keys(obj["system"], "system", ("factors", "n", "dims"))
        for key, want in system.to_json().items():
            if key in obj["system"] and \
                    canonical_json(got := obj["system"][key]) != canonical_json(want):
                raise CertificateError(f"system {key} must be {want}, got {got!r}")
        claimed = obj["claimed"]
        if not isinstance(claimed, dict) or "K" not in claimed or "d" not in claimed:
            raise CertificateError("claimed block needs K and d")
        _known_keys(claimed, "claimed", ("K", "d"))
        try:
            K, d = (_json_int(claimed[k], f"claimed {k}") for k in "Kd")
        except TypeError as exc:
            raise CertificateError(f"bad claim: {exc}") from exc
        if K < 1 or d < 1:
            raise CertificateError("claimed K and d must be positive")
        if d > system.n + 1:
            # every error of weight d - 1 would need more particles than exist
            raise CertificateError(f"claimed d = {d} exceeds n + 1 = {system.n + 1}")
        cons = obj["construction"]
        if not isinstance(cons, dict) or cons.get("type") not in CONSTRUCTION_TYPES:
            raise CertificateError(f"unknown construction type "
                                   f"{cons.get('type') if isinstance(cons, dict) else cons!r}")
        verification = obj.get("verification", {})
        if not isinstance(verification, dict):
            raise CertificateError("verification block must be an object")
        cert = Certificate(str(obj["name"]), system, K, d, cons, dict(verification),
                           str(obj.get("toolkit_version", TOOLKIT_VERSION)))
        stored = obj.get("content_hash")
        if stored is not None and stored != cert.hash:
            raise CertificateError("content hash mismatch")
        return cert

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


def _known_keys(block: dict, name: str, known: tuple[str, ...]) -> None:
    """CertificateError naming the first key of block outside known."""
    for key in block:
        if key not in known:
            raise CertificateError(f"unknown key {key!r} in the {name} block; "
                                   f"it takes only {', '.join(known)}")


def load_certificate(path: str | Path) -> Certificate:
    p = Path(path)
    try:
        obj = json.loads(p.read_text())
    except FileNotFoundError as exc:
        raise CertificateError(f"certificate not found: {p}") from exc
    except json.JSONDecodeError as exc:
        raise CertificateError(f"invalid JSON in {p}: {exc}") from exc
    return Certificate.from_json(obj)


# --- construction -> Code ------------------------------------------------


def _clique_from_construction(cons: dict, d: int) -> CodingClique:
    try:
        graphs = tuple(WeightedGraph.from_json(g) for g in cons["graphs"])

        def label(v) -> tuple[ModVec, ...]:
            return tuple(ModVec(g.m, tuple(_json_int(a, "a label digit") for a in part))
                         for g, part in zip(graphs, v, strict=True))

        raw = cons.get("vectors")
        vectors = (tuple(map(label, raw)) if raw is not None
                   else closure([label(v) for v in cons["generators"]]))
        return CodingClique(graphs=graphs, d=d, vectors=vectors)
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"bad clique construction: {exc}") from exc


def _stabilizer_rows(cert: Certificate) -> list[StabilizerRow]:
    """The stored rows, each read with its stored phase (one when the
    construction stores no phases)."""
    cons = cert.construction
    try:
        texts, stored = cons["rows"], cons.get("phases")
        phases = ([PHASE_ONE] * len(texts) if stored is None else
                  [Phase(*(_json_int(a, "a phase") for a in p)) for p in stored])
        if len(phases) != len(texts):
            raise CertificateError(f"stabilizer construction has {len(phases)} phases "
                                   f"for {len(texts)} rows")
        return [parse_stabilizer_row(cert.system, tuple(t), p)
                for t, p in zip(texts, phases)]
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"bad stabilizer construction: {exc}") from exc


def _build(cert: Certificate, base_dir: Path, seen: frozenset,
           tol: float) -> tuple[Code, tuple[Code, ProjectorSpec] | None,
                                tuple[StabilizerRow, ...] | None]:
    """Construct the code a certificate describes, with what its checks
    and its emitted block need beyond the code: ``(code, projection,
    rows)``, where ``projection`` is the built ancilla and its projector
    for a projection and ``rows`` the new stabilizer rows for a pasting,
    else None.  ``seen`` holds the referenced files above this one, and
    ``tol`` is the tolerance of a pasting's check of its base.

    Structural problems, inputs that do not fit together included (a
    pasting's block dimension and its base, a base clique with no
    stabilizer rows), raise CertificateError and
    values beyond the int64 stabilizer tableau IntegerRangeError;
    mathematical failures (non-closing rows, base rows that fail their
    check, vanishing codewords, eigenspace mismatch) raise ValueError and
    count as verification failures, not input errors.
    """
    cons = cert.construction
    kind = cons["type"]
    if kind == "composite_clique":
        return Code.from_clique(_clique_from_construction(cons, cert.d)), None, None
    if kind == "stabilizer":
        form = stabilizer_eigenbasis(cert.system, _stabilizer_rows(cert))
        return Code.from_monomial(cert.system, form, cert.d), None, None
    if kind == "projection":
        ref = cons.get("ancilla")
        if not isinstance(ref, str):
            raise CertificateError("projection construction needs a 'ancilla' ref")
        _, ancilla = _build_ref(ref, base_dir, seen, tol)
        try:
            spec = ProjectorSpec.from_json(ancilla.system, cons["projector"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"bad projector block: {exc}") from exc
        try:
            code = project_code(ancilla, spec)
        except ConstructionInputError as exc:
            raise CertificateError(f"bad projection: {exc}") from exc
        return code, (ancilla, spec), None
    if kind == "product":
        refs = cons.get("refs")
        if not isinstance(refs, list) or len(refs) != 2:
            raise CertificateError("product construction needs two refs")
        a, b = [_build_ref(ref, base_dir, seen, tol)[1] for ref in refs]
        if (a.n, a.d) != (b.n, b.d):
            raise CertificateError(f"product needs codes of one length and one "
                                   f"claimed distance, got (n, d) = ({a.n}, {a.d}) "
                                   f"and ({b.n}, {b.d})")
        return product_code(a, b), None, None
    if kind == "pasting":
        refs = cons.get("refs")
        if not isinstance(refs, list) or len(refs) != 1:
            raise CertificateError("pasting construction needs exactly one ref")
        base_cert, base_code = _build_ref(refs[0], base_dir, seen, tol)
        try:
            blocks, block_dim = (_json_int(cons[k], k) for k in ("blocks", "block_dim"))
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"bad pasting block parameters: {exc}") from exc
        try:
            rows = base_stabilizer_rows(base_cert, base_code)
            res = paste_distance2(rows, base_code, blocks, block_dim, tol=tol)
        except ConstructionInputError as exc:
            raise CertificateError(f"bad pasting: {exc}") from exc
        return pasted_code(res), None, res.rows
    raise CertificateError(f"unknown construction type {kind!r}")


def _build_ref(ref: str, base_dir: Path, seen: frozenset, tol: float) -> tuple[Certificate, Code]:
    """Load a referenced certificate and build its code."""
    if not isinstance(ref, str):
        raise CertificateError(f"certificate reference must be a path string, got {ref!r}")
    path = Path(ref)
    if not path.is_absolute():
        path = base_dir / path
    marker = path.resolve()
    if marker in seen:
        raise CertificateError(f"circular certificate reference via {ref}")
    sub = load_certificate(path)
    return sub, _build(sub, path.parent, seen | {marker}, tol)[0]


def build_code(cert: Certificate, base_dir: str | Path = ".") -> Code:
    """Construct the code a certificate describes.

    Raises as verify_certificate's build does: CertificateError and
    IntegerRangeError for bad input, ValueError for a construction that
    fails mathematically.
    """
    return _build(cert, Path(base_dir), frozenset(), 1e-9)[0]


def base_stabilizer_rows(cert: Certificate, code: Code) -> tuple[StabilizerRow, ...]:
    """Stabilizer rows of a built code: the stored rows, with their
    phases, for stabilizer form, the clique-vector kernel otherwise."""
    if cert.construction["type"] == "stabilizer":
        return tuple(_stabilizer_rows(cert))
    if code.clique is not None:
        return clique_stabilizer_rows(code.clique)
    raise CertificateError("pasting base must be clique or stabilizer form")


# --- verification --------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def verify_certificate(cert: Certificate, base_dir: str | Path = ".",
                       run_symbolic: bool = True, run_numeric: bool = True,
                       distance: bool = False, tol: float = 1e-9) -> dict:
    """Re-run the requested checks and return a report.

    The certificate's verification block is updated in memory; callers
    decide whether to write it back.  Verdict is "pass" only if every
    check that ran succeeded and the claimed K matches the built code.
    """
    check_tol(tol)
    try:
        code, projection, _ = _build(cert, Path(base_dir), frozenset(), tol)
    except ValueError as exc:
        return _construction_failed(cert, exc, tol)
    return _check(cert, code, projection, tol, run_symbolic, run_numeric, distance)


def certify(name: str, d: int, construction: dict, base_dir: str | Path = ".",
            tol: float = 1e-9, distance: bool = False) -> tuple[Certificate | None, dict]:
    """Build a new code once and certify that same code.

    The certificate claims the built code's system and K at distance d,
    and its verification block comes from verify_certificate's checks run
    on the built code, so it is the block verify_certificate writes for
    the returned certificate.  A pasting's new stabilizer rows are added
    to the block.  Returns (certificate, report); the certificate is None
    when the construction fails.
    """
    check_tol(tol)
    if construction.get("type") == "stabilizer":
        raise CertificateError("stabilizer rows are read against a claimed system; "
                               "verify the certificate instead")
    cert = Certificate(name, None, 0, d, construction)  # the claim is the built code's
    try:
        code, projection, rows = _build(cert, Path(base_dir), frozenset(), tol)
    except ValueError as exc:
        return None, _construction_failed(cert, exc, tol)
    cert.system, cert.K = code.system, code.K
    report = _check(cert, code, projection, tol, distance=distance)
    if rows is not None:
        cert.verification["rows"] = [list(r.text) for r in rows]
    return cert, report


def _construction_failed(cert: Certificate, exc: ValueError, tol: float) -> dict:
    cert.verification = {"tol": _fmt(tol), "verdict": "fail"}
    return {"name": cert.name, "verdict": "fail",
            "error": f"construction failed: {exc}", "checks": {}}


def _check(cert: Certificate, code: Code, projection: tuple[Code, ProjectorSpec] | None,
           tol: float, run_symbolic: bool = True, run_numeric: bool = True,
           distance: bool = False) -> dict:
    """The checks of a built code against its certificate's claim."""
    checks: dict = {}
    failures: list[str] = []
    record: dict = {"tol": _fmt(tol)}

    if code.K != cert.K:
        failures.append(f"built K = {code.K}, claimed {cert.K}")
    if code.system.dims != cert.system.dims:
        failures.append(f"built dims {code.system.dims}, claimed {cert.system.dims}")

    if code.clique is not None:
        crep = check_clique(code.clique)
        checks["clique"] = crep.to_json()
        if not crep.ok:
            failures.append("clique conditions")
        if run_symbolic:
            srep = kl_verify_symbolic(code)
            checks["symbolic"] = srep.to_json()
            record["symbolic"] = "pass" if srep.ok else "fail"
            if not srep.ok:
                failures.append("symbolic verification")
    elif run_symbolic:
        checks["symbolic"] = {"skipped": "no clique form"}
        record["symbolic"] = "skipped"

    if projection is not None:
        ancilla, spec = projection
        try:
            words = required_detectable_set(spec, d=cert.d)
            wrep = kl_verify_words(ancilla, words, tol=tol)
            checks["ancilla_detection"] = wrep.to_json()
            if not wrep.ok:
                failures.append("ancilla misses a dressed error")
        except (CertificateError, ValueError) as exc:
            checks["ancilla_detection"] = {"error": str(exc)}
            failures.append("ancilla detection check errored")

    nrep = None
    if run_numeric:
        if code.system.total_dim > (limit := dim_cap()):
            checks["numeric"] = {
                "skipped": f"dimension {code.system.total_dim} exceeds cap {limit}"}
            record["numeric"] = "skipped"
        else:
            nrep = kl_verify_numeric(code, tol=tol)
            checks["numeric"] = nrep.to_json()
            record["numeric"] = "pass" if nrep.ok else "fail"
            if nrep.max_deviation is not None:
                record["max_deviation"] = _fmt(nrep.max_deviation)
            if not nrep.ok:
                failures.append("numeric verification")

    if distance:
        # both scans take supports by size at one tol: a failing numeric
        # check's witness has the distance as weight; a passing one, d - 1
        if nrep is not None and not nrep.ok:
            w = nrep.witness["error"]
            dmeas = sum(any(x) or any(z) for x, z in zip(w["x"], w["z"]))
        else:
            dmeas = code_distance(code, tol=tol, w_min=code.d if nrep else 1)
        checks["distance"] = dmeas
        record["distance"] = dmeas
        if dmeas < cert.d:
            failures.append(f"measured distance {dmeas} < claimed {cert.d}")

    brep = bound_report(code.system.dims, cert.d, K=cert.K)
    checks["bounds"] = brep.to_json()
    record["bounds"] = brep.verdict
    if brep.verdict == "violates":
        failures.append("claimed K violates a bound")

    verdict = "pass" if not failures else "fail"
    record["verdict"] = verdict
    cert.verification = record
    report = {"name": cert.name, "verdict": verdict, "checks": checks}
    if failures:
        report["failures"] = failures
    return report
