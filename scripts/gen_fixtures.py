"""Regenerate the packaged fixture certificates.

Writes the canonical example codes (with fresh verification blocks) to
src/mixedqec/fixtures/, plus the mutation negatives that run-fixtures
expects to fail.  Run from the repository root:

    python3 scripts/gen_fixtures.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mixedqec.certificates import Certificate, certify, verify_certificate  # noqa: E402
from mixedqec.errors import MixedSystem  # noqa: E402
from mixedqec.graphs import loop_graph  # noqa: E402

OUT = ROOT / "src" / "mixedqec" / "fixtures"

L3 = loop_graph(3, 2)
L4 = loop_graph(4, 2)
L5 = loop_graph(5, 2)
L6 = loop_graph(6, 2)
L5Q3 = loop_graph(5, 3)


def clique_cons(graphs, generators=None, vectors=None) -> dict:
    cons = {"type": "composite_clique",
            "graphs": [g.to_json() for g in graphs]}
    if vectors is not None:
        cons["vectors"] = [[list(part) for part in v] for v in vectors]
    else:
        cons["generators"] = [[list(part) for part in v] for v in generators]
    return cons


def create(name: str, d: int, cons: dict, distance: bool = False,
           expect: str = "pass", directory: Path = OUT) -> None:
    """Build a code once, certify it and write ``<name>.json``."""
    cert, report = certify(name, d, cons, directory, distance=distance)
    # a pasting's rows stay out: fixtures hold the block verify writes back
    cert.verification.pop("rows", None)
    write(cert, report, expect, directory)


def save(cert: Certificate, expect: str = "pass", directory: Path = OUT) -> None:
    """Verify a certificate whose claim is given and write it."""
    write(cert, verify_certificate(cert, directory), expect, directory)


def write(cert: Certificate, report: dict, expect: str, directory: Path) -> None:
    fname = f"{report['name']}.json"
    if report["verdict"] != expect:
        raise SystemExit(f"{fname}: expected {expect}, got "
                         f"{json.dumps(report, indent=2, sort_keys=True, default=str)}")
    cert.save(directory / fname)
    extra = f" (failures: {'; '.join(report.get('failures', []))})" if expect == "fail" else ""
    print(f"{fname}: {report['verdict']}{extra}")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / "negatives").mkdir(exist_ok=True)

    create("3_4_2_q4", 2, clique_cons((L3, L3), [
        [[1, 0, 0], [0, 1, 0]],
        [[0, 1, 0], [0, 0, 1]],
    ]), distance=True)

    create("6_16_3_q4", 3, clique_cons((L6, L6), [
        [[1, 0, 0, 1, 0, 0], [0, 0, 1, 1, 0, 1]],
        [[0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 1, 1]],
        [[0, 0, 1, 1, 0, 1], [1, 0, 1, 0, 0, 1]],
        [[0, 0, 0, 1, 1, 0], [1, 1, 0, 0, 0, 0]],
    ]))

    create("6_8_3_mixed", 3, clique_cons((L6, L5), [
        [[1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1]],
        [[0, 1, 1, 1, 1, 0], [1, 0, 0, 0, 0]],
        [[0, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0]],
    ]))

    create("6_4_3_mixed", 3, clique_cons((L6, L4), [
        [[1, 1, 1, 0, 1, 0], [0, 1, 0, 1]],
        [[0, 1, 1, 1, 0, 1], [1, 0, 1, 0]],
    ]))

    create("3_8_2_q8", 2, clique_cons((L3, L3, L3), [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    ]), distance=True)

    ancilla_labels = ["00000", "01020", "02110", "11010", "10222",
                      "12200", "20210", "21102", "22120"]
    ancilla_vectors = [[[int(c) for c in s]] for s in ancilla_labels]
    create("5_9_2_q3", 2, clique_cons((L5Q3,), vectors=ancilla_vectors),
           distance=True)

    create("5_9_2_proj", 2, {"type": "projection", "ancilla": "5_9_2_q3.json",
                             "projector": {"keep": {"5": [0, 1]}}}, distance=True)
    create("5_16_2_paste", 2, {"type": "pasting", "refs": ["3_4_2_q4.json"],
                               "blocks": 1, "block_dim": 2}, distance=True)
    create("3_32_2_product", 2, {"type": "product",
                                 "refs": ["3_4_2_q4.json", "3_8_2_q8.json"]})

    rows = [
        ["XZZXZZ", "XZIIIZ"],
        ["ZXZZXZ", "ZXZIII"],
        ["ZZXZZX", "IIIIII"],
        ["IIIIII", "ZZXZZX"],
        ["XZIIIZ", "IIZXZI"],
        ["ZXZIII", "IIIZXZ"],
        ["IZXZII", "YYZIIZ"],
        ["YXYZIZ", "IZXZII"],
    ]
    phases = [[0, 1]] * 7 + [[1, 2]]
    stab_sys = MixedSystem.layered([(2, 6), (2, 6)])
    stab = Certificate("6_16_3_stab", stab_sys, 16, 3,
                       {"type": "stabilizer", "rows": rows, "phases": phases})
    save(stab)

    # --- negatives: each must fail verification or be rejected on load ---
    neg = OUT / "negatives"

    create("neg_bad_vector", 2, clique_cons((L3, L3), vectors=[
        [[0, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, 1, 0]],
        [[0, 1, 0], [0, 0, 1]],
        [[1, 1, 0], [0, 1, 1]],
        [[0, 0, 1], [0, 0, 0]],
    ]), expect="fail", directory=neg)

    gens_342 = [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]]
    save(Certificate("neg_wrong_K", MixedSystem.layered([(2, 3), (2, 3)]), 8, 2,
                     clique_cons((L3, L3), gens_342)), expect="fail", directory=neg)

    create("neg_wrong_d", 3, clique_cons((L3, L3), gens_342),
           expect="fail", directory=neg)

    mutated = [["IZZXZZ", "XZIIIZ"]] + rows[1:]
    bad_row = Certificate("neg_bad_row", stab_sys, 16, 3,
                          {"type": "stabilizer", "rows": mutated,
                           "phases": phases})
    save(bad_row, expect="fail", directory=neg)

    good = json.loads((OUT / "3_4_2_q4.json").read_text())
    good["name"] = "neg_bad_hash"
    good["content_hash"] = "sha256:" + "0" * 64
    (neg / "neg_bad_hash.json").write_text(json.dumps(good, indent=2,
                                                      sort_keys=True) + "\n")
    print("neg_bad_hash.json: written")


if __name__ == "__main__":
    main()
