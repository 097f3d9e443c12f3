"""Acceptance gate: every published example re-derived and checked.

Each criterion is one test; the test name is the pass/fail line.  Stated
runtime limits are asserted with wall-clock measurements, so keep this
file runnable on a single core without tuning.
"""
import itertools
import json
import random
import time

import pytest

from mixedqec.algebra import ModVec
from mixedqec.bounds import classify, hamming_bound, singleton_bound
from mixedqec.certificates import load_certificate
from mixedqec.cli import _default_fixture_dir, main
from mixedqec.clique import (
    CodingClique,
    check_clique,
    closure,
    covered_differences,
    purity_set,
)
from mixedqec.compose import clique_stabilizer_rows, paste_distance2, pasted_code, product_code
from mixedqec.errors import MixedSystem, weight
from mixedqec.graphs import loop_graph
from mixedqec.projection import ProjectorSpec, project_code, required_detectable_set
from mixedqec.verifier import (
    Code,
    code_distance,
    kl_verify_numeric,
    kl_verify_symbolic,
    kl_verify_words,
    _Tableau,
    parse_stabilizer_row,
    verify_stabilizer,
)
from oracles import graph_action, stabilizer_error_word

L3 = loop_graph(3, 2)
L4 = loop_graph(4, 2)
L5 = loop_graph(5, 2)
L6 = loop_graph(6, 2)
L5Q3 = loop_graph(5, 3)

FIXTURES = _default_fixture_dir()


def vec(m, *entries):
    return ModVec.of(m, entries)


GENS = {
    "342": ((L3, L3), 2, [
        (vec(2, 1, 0, 0), vec(2, 0, 1, 0)),
        (vec(2, 0, 1, 0), vec(2, 0, 0, 1)),
    ]),
    "6163": ((L6, L6), 3, [
        (vec(2, 1, 0, 0, 1, 0, 0), vec(2, 0, 0, 1, 1, 0, 1)),
        (vec(2, 0, 1, 0, 0, 1, 0), vec(2, 0, 0, 1, 0, 1, 1)),
        (vec(2, 0, 0, 1, 1, 0, 1), vec(2, 1, 0, 1, 0, 0, 1)),
        (vec(2, 0, 0, 0, 1, 1, 0), vec(2, 1, 1, 0, 0, 0, 0)),
    ]),
    "683": ((L6, L5), 3, [
        (vec(2, 1, 0, 0, 0, 0, 0), vec(2, 1, 1, 1, 1, 1)),
        (vec(2, 0, 1, 1, 1, 1, 0), vec(2, 1, 0, 0, 0, 0)),
        (vec(2, 0, 0, 0, 0, 1, 1), vec(2, 0, 1, 0, 1, 0)),
    ]),
    "643": ((L6, L4), 3, [
        (vec(2, 1, 1, 1, 0, 1, 0), vec(2, 0, 1, 0, 1)),
        (vec(2, 0, 1, 1, 1, 0, 1), vec(2, 1, 0, 1, 0)),
    ]),
    "382": ((L3, L3, L3), 2, [
        (vec(2, 1, 0, 0), vec(2, 0, 1, 0), vec(2, 0, 0, 0)),
        (vec(2, 0, 1, 0), vec(2, 0, 0, 0), vec(2, 0, 0, 1)),
        (vec(2, 0, 0, 0), vec(2, 0, 0, 1), vec(2, 0, 1, 0)),
    ]),
}

ANCILLA_LABELS = ["00000", "01020", "02110", "11010", "10222",
                  "12200", "20210", "21102", "22120"]

STAB_ROWS_6163 = [
    ("XZZXZZ", "XZIIIZ"),
    ("ZXZZXZ", "ZXZIII"),
    ("ZZXZZX", "IIIIII"),
    ("IIIIII", "ZZXZZX"),
    ("XZIIIZ", "IIZXZI"),
    ("ZXZIII", "IIIZXZ"),
    ("IZXZII", "YYZIIZ"),
    ("YXYZIZ", "IZXZII"),
]

PASTED_ROW_TEXTS = [
    ("ZZXXZ", "III"),
    ("IIIII", "XZZ"),
    ("XZZZX", "ZXZ"),
    ("ZXZII", "ZZX"),
]


def group_clique(key):
    graphs, d, gens = GENS[key]
    return CodingClique(graphs=graphs, d=d, vectors=closure(gens))


def ancilla_code():
    vecs = tuple((ModVec.of(3, tuple(int(c) for c in s)),)
                 for s in ANCILLA_LABELS)
    return Code.from_clique(CodingClique(graphs=(L5Q3,), d=2, vectors=vecs))


def test_criterion_1_three_ququart_code():
    t0 = time.perf_counter()
    cl = group_clique("342")
    assert check_clique(cl).ok
    code = Code.from_clique(cl)
    srep = kl_verify_symbolic(code)
    nrep = kl_verify_numeric(code)
    assert srep.ok and srep.checked_errors == 45
    assert nrep.ok and nrep.max_deviation < 1e-9
    assert code_distance(code) == 2
    assert classify(((4, 4, 4), 4, 2)) == "optimal"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_six_ququart_distance_3():
    graphs, d, gens = GENS["6163"]
    vecs = closure(gens)
    assert len(vecs) == 16
    code = Code.from_clique(CodingClique(graphs=graphs, d=d, vectors=vecs))

    t0 = time.perf_counter()
    srep = kl_verify_symbolic(code)
    t_sym = time.perf_counter() - t0
    assert srep.ok and srep.checked_errors == 3465
    assert t_sym < 1.0

    t0 = time.perf_counter()
    nrep = kl_verify_numeric(code)
    t_num = time.perf_counter() - t0
    assert code.system.total_dim == 4096
    assert nrep.ok and nrep.max_deviation < 1e-9
    assert t_num < 60.0

    assert classify(((4,) * 6, 16, 3)) == "optimal"


def test_criterion_3_mixed_alphabet_distance_3():
    for key, dims, K in (("683", (4, 4, 4, 4, 4, 2), 8),
                         ("643", (4, 4, 4, 4, 2, 2), 4)):
        cl = group_clique(key)
        assert cl.K == K
        code = Code.from_clique(cl)
        assert code.system.dims == dims
        assert kl_verify_symbolic(code).ok
        nrep = kl_verify_numeric(code)
        assert nrep.ok and nrep.max_deviation < 1e-9
        assert singleton_bound(dims, 3) == K
        assert classify((dims, K, 3)) == "optimal"


def test_criterion_4_pasted_distance_2():
    base = Code.from_clique(group_clique("342"))
    rows = clique_stabilizer_rows(group_clique("342"))
    res = paste_distance2(rows, base, blocks=1, block_dim=2)
    assert [r.text for r in res.rows] == PASTED_ROW_TEXTS
    code = pasted_code(res)
    assert code.system.total_dim == 256 and code.K == 16

    published = [parse_stabilizer_row(code.system, t) for t in PASTED_ROW_TEXTS]
    rep = verify_stabilizer(published, code)
    assert rep.ok and rep.commuting
    assert rep.eigenspace_dim == 16.0
    assert rep.projector_diff < 1e-9

    nrep = kl_verify_numeric(code, d=2)
    assert nrep.ok and nrep.max_deviation < 1e-9


def test_criterion_5_projection_end_to_end():
    anc = ancilla_code()
    spec = ProjectorSpec(anc.system, (tuple(range(3)),) * 4 + ((0, 1),))
    words = required_detectable_set(spec, d=2)
    assert words
    wrep = kl_verify_words(anc, words)
    assert wrep.ok

    code = project_code(anc, spec)
    assert code.system.dims == (3, 3, 3, 3, 2) and code.K == 9
    assert code.system.total_dim == 162
    nrep = kl_verify_numeric(code, d=2)
    assert nrep.ok and nrep.max_deviation < 1e-9

    assert singleton_bound((3, 3, 3, 3, 2), 2) == 18
    assert classify(((3, 3, 3, 3, 2), 9, 2)) == "suboptimal"


def test_criterion_6_stabilizer_rows_match_clique_code():
    code = Code.from_clique(group_clique("6163"))
    rows = [parse_stabilizer_row(code.system, t) for t in STAB_ROWS_6163]
    # every pair of rows commutes
    assert not _Tableau(code.system, [r.word for r in rows]).commutators().any()
    rep = verify_stabilizer(rows, code)
    assert rep.ok and rep.commuting
    assert rep.eigenspace_dim == 16.0
    assert rep.projector_diff < 1e-9


def test_criterion_7_product_code():
    t0 = time.perf_counter()
    A = Code.from_clique(group_clique("342"))
    B = Code.from_clique(group_clique("382"))
    prod = product_code(A, B)
    assert prod.system.dims == (32, 32, 32) and prod.K == 32
    assert kl_verify_symbolic(prod).ok
    assert prod.system.total_dim == 32768
    nrep = kl_verify_numeric(prod, d=2)
    assert nrep.ok and nrep.max_deviation < 1e-9
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8_search_finds_group_clique(tmp_path, capsys):
    p = tmp_path / "L3m2.json"
    p.write_text(json.dumps(L3.to_json()))
    t0 = time.perf_counter()
    rc = main(["search", "--graph-p", str(p), "--graph-r", str(p),
               "--distance", "2", "--target", "4", "--mode", "group"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    cert = json.loads(out)
    assert cert["claimed"]["K"] >= 4
    assert cert["verification"]["verdict"] == "pass"
    assert elapsed < 10.0


def test_criterion_9a_verifier_agreement_on_random_cliques():
    for key, (graphs, _, _) in list(GENS.items()) + [("anc", ((L5Q3,), 2, None))]:
        rng = random.Random(f"agree-{key}")
        zero = tuple(ModVec.zeros(g.m, g.n) for g in graphs)
        for trial in range(100):
            vecs = {zero}
            for _ in range(rng.randint(1, 3)):
                vecs.add(tuple(
                    ModVec(g.m, tuple(rng.randrange(g.m) for _ in range(g.n)))
                    for g in graphs))
            cl = CodingClique(graphs=graphs, d=2, vectors=tuple(sorted(
                vecs, key=lambda v: tuple(tuple(p.entries) for p in v))))
            code = Code.from_clique(cl)
            s_ok = kl_verify_symbolic(code, d=2).ok
            n_ok = kl_verify_numeric(code, d=2).ok
            assert s_ok == n_ok, (key, trial, s_ok, n_ok)


def test_criterion_9b_fixtures_respect_bounds():
    certs = sorted(FIXTURES.glob("*.json"))
    assert len(certs) == 10
    for path in certs:
        cert = load_certificate(path)
        dims = cert.system.dims
        assert classify((dims, cert.K, cert.d)) != "violates", path.name
        assert cert.K <= singleton_bound(dims, cert.d), path.name
        if cert.d >= 3:
            assert cert.K <= hamming_bound(dims, cert.d), path.name


def _error_labels(graphs):
    """Independent enumeration of all nonzero error words as per-layer
    (x, z) vectors, keyed by particle support size."""
    n = graphs[0].n
    per_particle = []
    for i in range(n):
        layers = [l for l, g in enumerate(graphs) if i < g.n]
        opts = []
        for digits in itertools.product(
                *[range(graphs[l].m ** 2) for l in layers]):
            if any(digits):
                opts.append({l: (d // graphs[l].m, d % graphs[l].m)
                             for l, d in zip(layers, digits)})
        per_particle.append(opts)
    for size in range(1, n + 1):
        for supp in itertools.combinations(range(n), size):
            for combo in itertools.product(*[per_particle[i] for i in supp]):
                xs = [[0] * g.n for g in graphs]
                zs = [[0] * g.n for g in graphs]
                for i, assign in zip(supp, combo):
                    for l, (a, b) in assign.items():
                        xs[l][i] = a
                        zs[l][i] = b
                yield size, xs, zs


def test_criterion_9c_purity_and_coverage_match_exhaustive_scans():
    tuples = [gr for gr, _, _ in GENS.values()] + [(L5Q3,)]
    for graphs in tuples:
        labels = 1
        for g in graphs:
            labels *= g.m ** g.n
        assert labels <= 4096
        sys = MixedSystem.layered([(g.m, g.n) for g in graphs])
        for d in (2, 3):
            expected = set()
            spaces = [
                [ModVec(g.m, e) for e in itertools.product(range(g.m), repeat=g.n)]
                for g in graphs]
            for ss in itertools.product(*spaces):
                word = stabilizer_error_word(sys, graphs, ss)
                if weight(word, sys) < d:
                    expected.add(ss)
            assert set(purity_set(graphs, d)) == expected, (graphs, d)

            covered = set()
            for size, xs, zs in _error_labels(graphs):
                if size >= d:
                    break
                deltas = tuple(
                    ModVec(g.m, tuple(z)) - graph_action(ModVec(g.m, tuple(x)), g)
                    for g, x, z in zip(graphs, xs, zs))
                covered.add(deltas)
            assert covered_differences(graphs, d) == covered, (graphs, d)


def test_criterion_9d_clique_conditions_decide_distance():
    draws = {"342": 15, "6163": 3, "683": 6, "643": 6, "382": 10}
    for key, count in draws.items():
        graphs, d, gens = GENS[key]
        rng = random.Random(f"mutate-{key}")
        base = closure(gens)
        for r in range(1, len(gens)):
            sub = CodingClique(graphs=graphs, d=d, vectors=closure(gens[:r]))
            assert check_clique(sub).ok
            assert kl_verify_symbolic(Code.from_clique(sub)).ok
        for _ in range(count):
            extra = tuple(
                ModVec(g.m, tuple(rng.randrange(g.m) for _ in range(g.n)))
                for g in graphs)
            if extra in base:
                continue
            vecs = closure(list(gens) + [extra])
            cl = CodingClique(graphs=graphs, d=d, vectors=vecs)
            ok = check_clique(cl).ok
            srep = kl_verify_symbolic(Code.from_clique(cl))
            assert srep.ok == ok, (key, extra)
            if not ok:
                assert srep.witness is not None
            if cl.system().total_dim <= 512:
                assert kl_verify_numeric(Code.from_clique(cl)).ok == ok
