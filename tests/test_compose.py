"""Products, clique-derived stabilizer rows, and distance-2 pasting.

The pasted five-particle code must reproduce the published four-row
stabilizer exactly, text and eigenspace both.
"""
import random

import numpy as np
import pytest

from mixedqec import compose
from mixedqec.algebra import PHASE_MINUS_ONE, PHASE_ONE, ModVec
from mixedqec.certificates import base_stabilizer_rows, build_code, load_certificate
from mixedqec.cli import _default_fixture_dir
from mixedqec.clique import CodingClique, closure
from mixedqec.compose import (
    PasteResult,
    _nullspace_mod_prime,
    clique_stabilizer_rows,
    paste_distance2,
    pasted_code,
    product_code,
)
from mixedqec.errors import ConstructionInputError, ErrorWord, MixedSystem
from mixedqec.graphs import WeightedGraph, loop_graph
from mixedqec.projection import ProjectorSpec, project_code
from mixedqec.verifier import (
    Code,
    StabilizerRow,
    code_distance,
    kl_verify_numeric,
    kl_verify_symbolic,
    _Tableau,
    _row_text,
    parse_stabilizer_row,
    stabilizer_eigenbasis,
    verify_stabilizer,
)
from oracles import stabilizer_error_word

FIXTURES = _default_fixture_dir()
L3 = loop_graph(3, 2)
L5 = loop_graph(5, 2)
L6 = loop_graph(6, 2)


def vec(m, *entries):
    return ModVec.of(m, entries)


def clique_342():
    gens = [
        (vec(2, 1, 0, 0), vec(2, 0, 1, 0)),
        (vec(2, 0, 1, 0), vec(2, 0, 0, 1)),
    ]
    return CodingClique(graphs=(L3, L3), d=2, vectors=closure(gens))


def clique_382():
    gens = [
        (vec(2, 1, 0, 0), vec(2, 0, 1, 0), vec(2, 0, 0, 0)),
        (vec(2, 0, 1, 0), vec(2, 0, 0, 0), vec(2, 0, 0, 1)),
        (vec(2, 0, 0, 0), vec(2, 0, 0, 1), vec(2, 0, 1, 0)),
    ]
    return CodingClique(graphs=(L3, L3, L3), d=2, vectors=closure(gens))


def clique_683():
    gens = [
        (vec(2, 1, 0, 0, 0, 0, 0), vec(2, 1, 1, 1, 1, 1)),
        (vec(2, 0, 1, 1, 1, 1, 0), vec(2, 1, 0, 0, 0, 0)),
        (vec(2, 0, 0, 0, 0, 1, 1), vec(2, 0, 1, 0, 1, 0)),
    ]
    return CodingClique(graphs=(L6, L5), d=3, vectors=closure(gens))


BASE_ROW_TEXTS = [
    ("ZZX", "III"),
    ("III", "XZZ"),
    ("XZZ", "ZXZ"),
    ("ZXZ", "ZZX"),
]

PASTED_ROW_TEXTS = [
    ("ZZXXZ", "III"),
    ("IIIII", "XZZ"),
    ("XZZZX", "ZXZ"),
    ("ZXZII", "ZZX"),
]


class TestStabilizerRows:
    def test_three_particle_rows_verify(self):
        cl = clique_342()
        rows = clique_stabilizer_rows(cl)
        assert len(rows) == 4
        assert [r.text for r in rows] == BASE_ROW_TEXTS
        rep = verify_stabilizer(rows, Code.from_clique(cl))
        assert rep.ok
        assert rep.eigenspace_dim == 4.0
        assert all(p == PHASE_ONE for p in rep.chosen_phases)

    def test_rows_pairwise_commute(self):
        cl = clique_683()
        rows = clique_stabilizer_rows(cl)
        assert not _Tableau(cl.system(), [r.word for r in rows]).commutators().any()

    def test_uneven_layer_widths(self):
        cl = clique_683()
        rows = clique_stabilizer_rows(cl)
        assert len(rows) == 8
        rep = verify_stabilizer(rows, Code.from_clique(cl))
        assert rep.ok and rep.eigenspace_dim == 8.0

    def test_nongroup_clique_rejected(self):
        zero = (vec(2, 0, 0, 0), vec(2, 0, 0, 0))
        vecs = (zero,
                (vec(2, 1, 0, 0), vec(2, 0, 0, 0)),
                (vec(2, 0, 1, 0), vec(2, 0, 0, 0)))
        cl = CodingClique(graphs=(L3, L3), d=1, vectors=vecs)
        with pytest.raises(ValueError, match="subgroup"):
            clique_stabilizer_rows(cl)

    def test_nonprime_modulus_rejected(self):
        g = loop_graph(3, 4)
        cl = CodingClique(graphs=(g,), d=1, vectors=((ModVec.zeros(4, 3),),))
        with pytest.raises(ValueError, match="prime"):
            clique_stabilizer_rows(cl)


def oracle_rows(cl: CodingClique):
    """The stabilizer rows of a subgroup clique, layer by layer: the
    kernel of the per-layer flattening of the vectors, each kernel
    vector cut into per-layer labels and turned into a word by
    ``oracles.stabilizer_error_word``; the text as "IXZY"[x + 2z] per
    layer and particle, None where a digit exceeds 1 or, off Z_2, where
    both digits of a factor are 1: Y is read back on qubit factors only."""
    m = cl.graphs[0].m
    flat = [[a for part in v for a in part.entries] for v in cl.vectors]
    kernel, _ = _nullspace_mod_prime(flat, m, sum(g.n for g in cl.graphs))
    sys = cl.system()
    out = []
    for s in kernel:
        ss, pos = [], 0
        for g in cl.graphs:
            ss.append(ModVec(m, tuple(s[pos:pos + g.n])))
            pos += g.n
        w = stabilizer_error_word(sys, cl.graphs, ss)
        digits = [(w.x[i][l], w.z[i][l]) for l, g in enumerate(cl.graphs) for i in range(g.n)]
        text = None
        if max(max(d) for d in digits) <= 1 and (m == 2 or (1, 1) not in digits):
            it = iter("IXZY"[a + 2 * b] for a, b in digits)
            text = tuple("".join(next(it) for _ in range(g.n)) for g in cl.graphs)
        out.append((w.x, w.z, w.phase, text))
    return out


def subgroup_fixtures():
    """Every packaged clique fixture whose clique is a subgroup over one
    prime modulus, built."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        if load_certificate(path).construction["type"] != "composite_clique":
            continue
        cl = build_code(load_certificate(path), FIXTURES).clique
        m = cl.graphs[0].m
        flat = [[a for part in v for a in part.entries] for v in cl.vectors]
        if all(g.m == m for g in cl.graphs) and m in (2, 3, 5, 7) and \
                m ** _nullspace_mod_prime(flat, m, len(flat[0]))[1] == cl.K:
            out.append(pytest.param(cl, id=path.stem))
    return out


def random_subgroup_clique(rng: random.Random, layers):
    """A random subgroup clique over random weighted graphs, one per
    (modulus, width) layer."""
    graphs = []
    for m, n in layers:
        adj = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                adj[a][b] = adj[b][a] = rng.randrange(m)
        graphs.append(WeightedGraph(n, m, tuple(map(tuple, adj))))
    gens = [tuple(ModVec(m, tuple(rng.randrange(m) for _ in range(n))) for m, n in layers)
            for _ in range(rng.randint(1, 3))]
    return CodingClique(graphs=tuple(graphs), d=1, vectors=closure(gens))


class TestRowsMatchPerLayerOracle:
    """``clique_stabilizer_rows`` builds every row from the label arrays
    in one pass; the per-layer oracle builds them vector by vector."""

    def assert_rows_match(self, cl, monkeypatch):
        expected = oracle_rows(cl)
        if all(text is not None for *_, text in expected):
            rows = clique_stabilizer_rows(cl)
            assert [r.text for r in rows] == [text for *_, text in expected]
        else:
            with pytest.raises(ConstructionInputError, match="only covers digits 0/1"):
                clique_stabilizer_rows(cl)
            # the words themselves are defined; only their text is not
            monkeypatch.setattr(compose, "_row_text", lambda sys, w: None)
            rows = clique_stabilizer_rows(cl)
            monkeypatch.undo()
        assert [(r.word.x, r.word.z, r.word.phase) for r in rows] == \
            [(x, z, phase) for x, z, phase, _ in expected]

    @pytest.mark.parametrize("cl", subgroup_fixtures())
    def test_fixture_cliques(self, cl, monkeypatch):
        self.assert_rows_match(cl, monkeypatch)

    @pytest.mark.parametrize("layers", [
        [(2, 3)], [(2, 5)], [(2, 6)], [(3, 3)], [(3, 4)],
        [(2, 5), (2, 3)], [(2, 6), (2, 4)], [(2, 4), (2, 4)],
    ], ids=str)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_subgroup_cliques(self, layers, seed, monkeypatch):
        rng = random.Random(f"{layers}{seed}")
        self.assert_rows_match(random_subgroup_clique(rng, layers), monkeypatch)

    def test_fixtures_cover_qubit_and_ragged_layers(self):
        names = [p.id for p in subgroup_fixtures()]
        assert {"3_4_2_q4", "6_4_3_mixed", "6_8_3_mixed"} <= set(names)


PASTES = [("3_4_2_q4", 2, 3), ("3_4_2_q4", 4, 2), ("3_8_2_q8", 2, 2), ("6_8_3_mixed", 2, 1)]


class TestRowNotationRoundTrip:
    """Every qubit-layer row the package reads or emits prints back to its
    text, and its printed text parses back to its x and z digits."""

    def assert_round_trip(self, sys, rows):
        assert rows
        for row in rows:
            assert _row_text(sys, parse_stabilizer_row(sys, row.text).word) == row.text
            again = parse_stabilizer_row(sys, _row_text(sys, row.word)).word
            assert (again.x, again.z) == (row.word.x, row.word.z)

    def test_stored_rows(self):
        cert = load_certificate(FIXTURES / "6_16_3_stab.json")
        rows = base_stabilizer_rows(cert, build_code(cert, FIXTURES))
        assert len(rows) == 8
        self.assert_round_trip(cert.system, rows)

    @pytest.mark.parametrize("name, block_dim, blocks", PASTES)
    def test_pasted_rows(self, name, block_dim, blocks):
        cert = load_certificate(FIXTURES / f"{name}.json")
        code = build_code(cert, FIXTURES)
        res = paste_distance2(base_stabilizer_rows(cert, code), code, blocks, block_dim)
        self.assert_round_trip(res.system, res.rows)

    @pytest.mark.parametrize("cl", subgroup_fixtures())
    def test_clique_rows(self, cl):
        self.assert_round_trip(cl.system(), clique_stabilizer_rows(cl))

    def test_qutrit_y_has_no_text(self):
        # x = z = 1 prints as Y on the qubit layer, where the parser reads
        # Y back; on the qutrit layer the parser refuses Y, so the printer
        # must refuse it too
        sys = MixedSystem.layered([(2, 2), (3, 2)])
        qubit_y = ErrorWord(((1, 0), (0, 0)), ((1, 0), (0, 0)), PHASE_ONE)
        assert _row_text(sys, qubit_y) == ("YI", "II")
        qutrit_y = ErrorWord(((0, 1), (0, 0)), ((0, 1), (0, 0)), PHASE_ONE)
        with pytest.raises(ConstructionInputError, match="only covers digits 0/1"):
            _row_text(sys, qutrit_y)
        with pytest.raises(ValueError, match="only defined on qubit factors"):
            parse_stabilizer_row(sys, ("II", "YI"))


class TestProduct:
    def test_32_level_product(self):
        prod = product_code(Code.from_clique(clique_342()),
                            Code.from_clique(clique_382()))
        assert prod.K == 32 and prod.d == 2
        assert prod.system.dims == (32, 32, 32)
        assert prod.clique is not None
        assert kl_verify_symbolic(prod).ok

    def test_32_level_weight1_scan(self):
        prod = product_code(Code.from_clique(clique_342()),
                            Code.from_clique(clique_382()))
        assert code_distance(prod, w_cap=1) == 2

    def test_product_with_trivial_code(self):
        A = Code.from_clique(clique_342())
        triv = CodingClique(graphs=(L3,), d=2,
                            vectors=((ModVec.zeros(2, 3),),))
        prod = product_code(A, Code.from_clique(triv))
        assert prod.K == A.K and prod.d == 2
        assert prod.system.dims == (8, 8, 8)
        assert kl_verify_symbolic(prod).ok

    def test_mismatched_inputs_rejected(self):
        A = Code.from_clique(clique_342())
        B5 = CodingClique(graphs=(L5,), d=2, vectors=((ModVec.zeros(2, 5),),))
        with pytest.raises(ValueError, match="particle counts"):
            product_code(A, Code.from_clique(B5))
        triv3 = CodingClique(graphs=(L3,), d=3, vectors=((ModVec.zeros(2, 3),),))
        with pytest.raises(ValueError, match="distances"):
            product_code(A, Code.from_clique(triv3))

    def test_numeric_path_matches_clique_path(self):
        A = Code.from_clique(clique_342())
        B = Code.from_clique(clique_382())
        symbolic = product_code(A, B).basis()
        Af = Code.from_basis(A.system, A.basis(), 2)
        Bf = Code.from_basis(B.system, B.basis(), 2)
        numeric = product_code(Af, Bf)
        assert numeric.clique is None
        assert np.abs(numeric.basis() - symbolic).max() < 1e-12


def base_rows_and_code():
    cl = clique_342()
    return clique_stabilizer_rows(cl), Code.from_clique(cl)


class TestPaste:
    def test_published_row_form_reproduced(self):
        rows, code = base_rows_and_code()
        res = paste_distance2(rows, code, blocks=1, block_dim=2)
        assert isinstance(res, PasteResult)
        assert res.system.dims == (4, 4, 4, 2, 2)
        assert res.K == 16
        assert [r.text for r in res.rows] == PASTED_ROW_TEXTS

    def test_pasted_eigenspace_and_kl(self):
        rows, code = base_rows_and_code()
        res = paste_distance2(rows, code, blocks=1, block_dim=2)
        pasted = pasted_code(res)
        assert pasted.K == 16
        published = [parse_stabilizer_row(res.system, t) for t in PASTED_ROW_TEXTS]
        rep = verify_stabilizer(published, pasted)
        assert rep.ok and rep.eigenspace_dim == 16.0
        assert rep.projector_diff < 1e-9
        kl = kl_verify_numeric(pasted, d=2)
        assert kl.ok and kl.max_deviation < 1e-9
        assert code_distance(pasted, w_cap=1) == 2

    def test_all_ququart_block(self):
        rows, code = base_rows_and_code()
        res = paste_distance2(rows, code, blocks=1, block_dim=4)
        assert res.system.dims == (4, 4, 4, 4, 4)
        assert res.K == 64
        pasted = pasted_code(res)
        kl = kl_verify_numeric(pasted, d=2)
        assert kl.ok and kl.max_deviation < 1e-9

    def test_two_qubit_blocks(self):
        rows, code = base_rows_and_code()
        res = paste_distance2(rows, code, blocks=2, block_dim=2)
        assert res.system.dims == (4, 4, 4, 2, 2, 2, 2)
        assert res.K == 64
        pasted = pasted_code(res)
        assert kl_verify_numeric(pasted, d=2).ok

    def test_merged_rows_commute(self):
        rows, code = base_rows_and_code()
        res = paste_distance2(rows, code, blocks=1, block_dim=4)
        assert not _Tableau(res.system, [r.word for r in res.rows]).commutators().any()

    def test_zero_blocks_rejected(self):
        rows, code = base_rows_and_code()
        with pytest.raises(ConstructionInputError, match="blocks"):
            paste_distance2(rows, code, blocks=0, block_dim=2)

    def test_bad_block_dimension_rejected(self):
        rows, code = base_rows_and_code()
        with pytest.raises(ConstructionInputError, match="power"):
            paste_distance2(rows, code, blocks=1, block_dim=3)
        with pytest.raises(ConstructionInputError, match="absorbed"):
            paste_distance2(rows, code, blocks=1, block_dim=8)

    @pytest.mark.parametrize("base, message", [
        ("distance_1", "distance-2 base"),
        ("not_layered", "layered base"),
        ("two_moduli", "uniform layer modulus"),
    ])
    def test_mismatched_base_rejected_as_input(self, base, message):
        rows, code = base_rows_and_code()
        base = {
            "distance_1": lambda: Code(code.system, code.K, 1, clique=code.clique),
            "not_layered": lambda: Code.from_basis(MixedSystem(((3,), (2,))),
                                                   np.eye(6)[:, :1], 2),
            "two_moduli": lambda: Code.from_basis(MixedSystem.layered([(2, 2), (3, 2)]),
                                                  np.eye(36)[:, :1], 2),
        }[base]()
        with pytest.raises(ConstructionInputError, match=message):
            paste_distance2(rows, base, blocks=1, block_dim=2)

    def test_unverified_base_rejected(self):
        # a failed check, not bad input
        rows, code = base_rows_and_code()
        wrong = Code.from_basis(code.system, np.eye(64)[:, :4], 2)
        with pytest.raises(ValueError, match="fail") as info:
            paste_distance2(rows, wrong, blocks=1, block_dim=2)
        assert not isinstance(info.value, ConstructionInputError)


def pasted_qubit_pair(phase):
    """The ((4, 4, 2))_2 code pasted from the two-qubit code of XX and
    phase * ZZ, in monomial form."""
    sys = MixedSystem.layered([(2, 2)])
    rows = [parse_stabilizer_row(sys, ("XX",)), parse_stabilizer_row(sys, ("ZZ",), phase)]
    base = Code.from_monomial(sys, stabilizer_eigenbasis(sys, rows), 2)
    return pasted_code(paste_distance2(rows, base, blocks=1, block_dim=2))


QUTRITS = MixedSystem(((3,),) * 3)


def qutrit_ancilla():
    """The K = 3 qutrit code of X X^2 I and Z Z Z, in monomial form: each
    codeword keeps one digit of particle 3 and runs over every digit of
    particles 1 and 2."""
    rows = [StabilizerRow(("",), ErrorWord(((1,), (2,), (0,)), ((0,),) * 3)),
            StabilizerRow(("",), ErrorWord(((0,),) * 3, ((1,),) * 3))]
    return Code.from_monomial(QUTRITS, stabilizer_eigenbasis(QUTRITS, rows), 2)


class TestMonomialForm:
    def test_product_of_pasted_codes_stays_monomial(self):
        A, B = pasted_qubit_pair(PHASE_ONE), pasted_qubit_pair(PHASE_MINUS_ONE)
        assert A.monomial is not None and A.K == B.K == 4
        prod = product_code(A, B)
        assert prod.monomial is not None and prod.K == 16
        # the dense product: np.kron, then the rows in particle-major order
        want = np.kron(A.basis(), B.basis()).reshape((2,) * 8 + (16,))
        want = want.transpose(0, 4, 1, 5, 2, 6, 3, 7, 8).reshape(256, 16)
        assert np.array_equal(prod.basis(), want)
        assert kl_verify_numeric(prod, 2).ok

    def test_projecting_monomial_ancilla_keeps_form(self):
        anc = qutrit_ancilla()
        spec = ProjectorSpec(QUTRITS, ((0, 1), (0, 1, 2), (0, 1, 2)))
        out = project_code(anc, spec)
        assert out.monomial is not None and out.system.dims == (2, 3, 3)
        # bit for bit the projection of the dense basis
        dense = project_code(Code.from_basis(QUTRITS, anc.basis(), 2), spec)
        assert out.basis().tobytes() == dense.basis().tobytes()

    def test_vanishing_codeword_of_monomial_ancilla_rejected(self):
        anc = qutrit_ancilla()
        spec = ProjectorSpec(QUTRITS, ((0, 1, 2), (0, 1, 2), (0, 1)))
        for code in (anc, Code.from_basis(QUTRITS, anc.basis(), 2)):
            with pytest.raises(ValueError, match="codeword 1 vanishes"):
                project_code(code, spec)
