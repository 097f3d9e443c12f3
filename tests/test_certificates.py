"""Certificate serialization, construction dispatch, verification."""
import json

import numpy as np
import pytest

from mixedqec.algebra import ModVec
from mixedqec.certificates import (
    SCHEMA,
    Certificate,
    CertificateError,
    base_stabilizer_rows,
    build_code,
    canonical_json,
    certify,
    load_certificate,
    verify_certificate,
)
from mixedqec.cli import _default_fixture_dir
from mixedqec.clique import CodingClique, closure
from mixedqec.errors import MixedSystem
from mixedqec.graphs import loop_graph

FIXTURES = _default_fixture_dir()
L3 = loop_graph(3, 2)
L6 = loop_graph(6, 2)
SYS66 = MixedSystem.layered([(2, 6), (2, 6)])

GENS_342 = [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]]

STAB_ROWS = [
    ["XZZXZZ", "XZIIIZ"],
    ["ZXZZXZ", "ZXZIII"],
    ["ZZXZZX", "IIIIII"],
    ["IIIIII", "ZZXZZX"],
    ["XZIIIZ", "IIZXZI"],
    ["ZXZIII", "IIIZXZ"],
    ["IZXZII", "YYZIIZ"],
    ["YXYZIZ", "IZXZII"],
]
STAB_PHASES = [[0, 1]] * 7 + [[1, 2]]


def cert_342(name="c342", K=4, d=2, gens=GENS_342):
    cons = {"type": "composite_clique",
            "graphs": [L3.to_json(), L3.to_json()],
            "generators": gens}
    sys = MixedSystem.layered([(2, 3), (2, 3)])
    return Certificate(name, sys, K, d, cons)


def clique_342():
    gens = [
        (ModVec.of(2, (1, 0, 0)), ModVec.of(2, (0, 1, 0))),
        (ModVec.of(2, (0, 1, 0)), ModVec.of(2, (0, 0, 1))),
    ]
    return CodingClique(graphs=(L3, L3), d=2, vectors=closure(gens))


class TestSerialization:
    def test_round_trip_same_hash(self):
        cert = cert_342()
        again = Certificate.from_json(cert.to_json())
        assert again.hash == cert.hash
        assert again.to_json() == cert.to_json()

    def test_hash_ignores_key_order(self):
        cert = cert_342()
        scrambled = json.loads(json.dumps(cert.to_json(), sort_keys=False))
        reordered = {k: scrambled[k] for k in reversed(list(scrambled))}
        assert Certificate.from_json(reordered).hash == cert.hash

    def test_hash_ignores_verification_block(self):
        cert = cert_342()
        h = cert.hash
        cert.verification = {"verdict": "pass"}
        assert cert.hash == h

    def test_hash_covers_claims(self):
        a = cert_342(K=4)
        b = cert_342(K=8)
        assert a.hash != b.hash
        assert a.hash.startswith("sha256:")

    def test_canonical_json_is_compact_and_sorted(self):
        s = canonical_json({"b": 1, "a": [1, 2]})
        assert s == '{"a":[1,2],"b":1}'

    def test_save_load(self, tmp_path):
        cert = cert_342()
        cert.save(tmp_path / "c.json")
        again = load_certificate(tmp_path / "c.json")
        assert again.name == "c342" and again.K == 4 and again.d == 2
        assert again.system.dims == (4, 4, 4)

    def test_schema_field(self):
        assert cert_342().to_json()["schema"] == SCHEMA


class TestRejection:
    def test_bad_schema(self):
        obj = cert_342().to_json()
        obj["schema"] = "mixedqec-cert/9"
        with pytest.raises(CertificateError, match="schema"):
            Certificate.from_json(obj)

    def test_missing_field(self):
        obj = cert_342().to_json()
        del obj["claimed"]
        with pytest.raises(CertificateError, match="claimed"):
            Certificate.from_json(obj)

    def test_tampered_hash(self):
        obj = cert_342().to_json()
        obj["content_hash"] = "sha256:" + "0" * 64
        with pytest.raises(CertificateError, match="hash"):
            Certificate.from_json(obj)

    def test_tampered_content(self):
        obj = cert_342().to_json()
        obj["claimed"]["K"] = 8
        with pytest.raises(CertificateError, match="hash"):
            Certificate.from_json(obj)

    def test_dims_must_match_factors(self):
        obj = cert_342().to_json()
        obj["system"]["dims"] = [4, 4, 2]
        with pytest.raises(CertificateError, match="dims"):
            Certificate.from_json(obj)

    @pytest.mark.parametrize("block, key, value", [("claimed", "distance", 3),
                                                   ("system", "dim", [4, 4, 2])])
    def test_unknown_key_rejected_under_stored_hash(self, block, key, value):
        # the hash covers only K and d, and the system as written, so a
        # stray claim or system key kept the fixture's stored hash valid
        # and verified, neither checked nor hashed
        obj = json.loads((FIXTURES / "3_4_2_q4.json").read_text())
        obj[block][key] = value
        with pytest.raises(CertificateError, match=f"unknown key '{key}' in the {block}"):
            Certificate.from_json(obj)
        del obj[block][key]
        assert Certificate.from_json(obj).hash == obj["content_hash"]

    def test_unknown_construction(self):
        obj = cert_342().to_json()
        obj["construction"] = {"type": "telepathy"}
        with pytest.raises(CertificateError, match="construction"):
            Certificate.from_json(obj)

    def test_nonpositive_claims(self):
        obj = cert_342().to_json()
        obj["claimed"]["d"] = 0
        with pytest.raises(CertificateError, match="positive"):
            Certificate.from_json(obj)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CertificateError, match="not found"):
            load_certificate(tmp_path / "absent.json")

    def test_invalid_json_file(self, tmp_path):
        (tmp_path / "junk.json").write_text("{nope")
        with pytest.raises(CertificateError, match="JSON"):
            load_certificate(tmp_path / "junk.json")


class TestBuild:
    def test_clique_generators(self):
        code = build_code(cert_342())
        assert code.K == 4 and code.system.dims == (4, 4, 4)
        assert code.clique is not None

    def test_clique_explicit_vectors(self):
        vectors = [[list(p.entries) for p in v] for v in clique_342().vectors]
        cons = {"type": "composite_clique",
                "graphs": [L3.to_json(), L3.to_json()],
                "vectors": vectors}
        cert = Certificate("v", MixedSystem.layered([(2, 3), (2, 3)]), 4, 2, cons)
        code = build_code(cert)
        ref = build_code(cert_342())
        assert np.linalg.norm(code.basis() - ref.basis()) < 1e-12

    def test_clique_shape_mismatch_rejected(self):
        bad = [[[1, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]]
        with pytest.raises(CertificateError, match="clique"):
            build_code(cert_342(gens=bad))

    def test_stabilizer_with_phases(self):
        cons = {"type": "stabilizer", "rows": STAB_ROWS, "phases": STAB_PHASES}
        cert = Certificate("s", SYS66, 16, 3, cons)
        code = build_code(cert)
        assert code.K == 16
        B = code.basis()
        P = B @ B.conj().T
        assert abs(np.trace(P).real - 16) < 1e-9

    def test_stabilizer_rows_close_without_phases(self):
        # qubit-layer symbols always close on their own, so the raw rows
        # stabilize some 16-dim space; the phase column just selects
        # which one.
        cons = {"type": "stabilizer", "rows": STAB_ROWS}
        assert build_code(Certificate("s", SYS66, 16, 3, cons)).K == 16

    def test_stabilizer_nonclosing_phase_rejected(self):
        cons = {"type": "stabilizer", "rows": STAB_ROWS,
                "phases": [[1, 4]] + [[0, 1]] * 7}
        with pytest.raises(ValueError, match="close"):
            build_code(Certificate("s", SYS66, 16, 3, cons))

    def test_stabilizer_bad_text_rejected(self):
        cons = {"type": "stabilizer", "rows": [["QZZXZZ", "XZIIIZ"]]}
        with pytest.raises(CertificateError, match="stabilizer"):
            build_code(Certificate("s", SYS66, 1, 3, cons))

    def test_projection_chain(self, tmp_path):
        anc = Certificate(
            "anc", MixedSystem(((3,),) * 5), 9, 2,
            {"type": "composite_clique",
             "graphs": [loop_graph(5, 3).to_json()],
             "vectors": [[[int(c) for c in s]] for s in
                         ["00000", "01020", "02110", "11010", "10222",
                          "12200", "20210", "21102", "22120"]]})
        anc.save(tmp_path / "anc.json")
        proj = Certificate(
            "proj", MixedSystem(((3,), (3,), (3,), (3,), (2,))), 9, 2,
            {"type": "projection", "ancilla": "anc.json",
             "projector": {"keep": {"5": [0, 1]}}})
        code = build_code(proj, tmp_path)
        assert code.system.dims == (3, 3, 3, 3, 2) and code.K == 9

    def test_product_and_pasting_refs(self, tmp_path):
        cert_342().save(tmp_path / "a.json")
        prod = Certificate("p", None, 16, 2,
                           {"type": "product", "refs": ["a.json", "a.json"]})
        code = build_code(prod, tmp_path)
        assert code.K == 16 and code.system.dims == (16, 16, 16)
        paste = Certificate("q", None, 16, 2,
                            {"type": "pasting", "refs": ["a.json"],
                             "blocks": 1, "block_dim": 2})
        code = build_code(paste, tmp_path)
        assert code.K == 16 and code.system.dims == (4, 4, 4, 2, 2)

    def test_product_of_different_distances_rejected(self, tmp_path):
        cert_342().save(tmp_path / "a.json")
        cert_342(d=3).save(tmp_path / "b.json")
        prod = Certificate("p", None, 16, 2,
                           {"type": "product", "refs": ["a.json", "b.json"]})
        with pytest.raises(CertificateError, match=r"\(3, 2\) and \(3, 3\)"):
            build_code(prod, tmp_path)

    def test_circular_reference_rejected(self, tmp_path):
        loop = Certificate("loop", None, 4, 2,
                           {"type": "pasting", "refs": ["loop.json"],
                            "blocks": 1, "block_dim": 2})
        # build the JSON by hand: to_json needs a system
        obj = {"schema": SCHEMA, "name": "loop",
               "system": {"n": 3, "factors": [[2, 2]] * 3},
               "claimed": {"K": 4, "d": 2},
               "construction": loop.construction}
        (tmp_path / "loop.json").write_text(json.dumps(obj))
        with pytest.raises(CertificateError, match="circular"):
            build_code(load_certificate(tmp_path / "loop.json"), tmp_path)

    def test_pasting_base_rows_match_kernel(self, tmp_path):
        cert = cert_342()
        code = build_code(cert)
        rows = base_stabilizer_rows(cert, code)
        assert [r.text for r in rows] == [
            ("ZZX", "III"), ("III", "XZZ"), ("XZZ", "ZXZ"), ("ZXZ", "ZZX")]


class TestVerify:
    def test_pass_report(self):
        cert = cert_342()
        report = verify_certificate(cert)
        assert report["verdict"] == "pass"
        assert report["checks"]["clique"]["verdict"] == "pass"
        assert report["checks"]["symbolic"]["verdict"] == "pass"
        assert report["checks"]["numeric"]["verdict"] == "pass"
        assert report["checks"]["bounds"]["verdict"] == "optimal"
        assert cert.verification["verdict"] == "pass"

    def test_wrong_K_fails(self):
        report = verify_certificate(cert_342(K=8))
        assert report["verdict"] == "fail"
        assert any("claimed 8" in f for f in report["failures"])

    def test_wrong_d_fails_with_bound_violation(self):
        report = verify_certificate(cert_342(d=3))
        assert report["verdict"] == "fail"
        assert "claimed K violates a bound" in report["failures"]

    def test_construction_failure_reported(self):
        cons = {"type": "stabilizer",
                "rows": [["IZZXZZ", "XZIIIZ"]] + STAB_ROWS[1:],
                "phases": STAB_PHASES}
        report = verify_certificate(Certificate("s", SYS66, 16, 3, cons))
        assert report["verdict"] == "fail"
        assert "commute" in report["error"]

    def test_distance_check(self):
        cert = cert_342()
        report = verify_certificate(cert, distance=True)
        assert report["checks"]["distance"] == 2
        report = verify_certificate(cert_342(d=2), distance=True)
        assert report["verdict"] == "pass"

    def test_numeric_skipped_over_cap(self, monkeypatch):
        cert = cert_342()
        monkeypatch.setenv("MIXEDQEC_DIM_CAP", "32")
        report = verify_certificate(cert)
        assert "skipped" in report["checks"]["numeric"]
        assert report["verdict"] == "pass"
        assert cert.verification["numeric"] == "skipped"

    def test_verification_block_has_no_floats(self):
        cert = cert_342()
        verify_certificate(cert)
        for v in cert.verification.values():
            assert isinstance(v, (str, int))


class TestCertify:
    def test_stabilizer_construction_rejected(self):
        # its rows cannot be read without a claimed system
        with pytest.raises(CertificateError, match="claimed system"):
            certify("s", 3, {"type": "stabilizer", "rows": STAB_ROWS})
