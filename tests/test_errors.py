import itertools

import numpy as np
import pytest

from mixedqec import errors
from mixedqec.algebra import PHASE_ONE, ModVec, Phase
from mixedqec.errors import (
    DimensionCapError,
    ErrorWord,
    MixedSystem,
    count_errors,
    dim_cap,
    error_blocks,
    format_word,
    in_support_order,
    parse_word,
    support_rows,
    supports,
    weight,
    word_radices,
)
from mixedqec.verifier import _Tableau
from oracles import (
    apply_error, enumerate_errors, error_matrix, label_is_identity, word_from_layers,
)


def two_layer(n, p, r, n1):
    """n p-level particles, the first n1 of which carry an r-level factor."""
    return MixedSystem.layered([(p, n)] + ([(r, n1)] if r > 1 and n1 else []))


class TestMixedSystem:
    def test_layered_dims(self):
        s = two_layer(6, 2, 2, 5)
        assert s.n == 6
        assert s.dims == (4, 4, 4, 4, 4, 2)
        assert s.total_dim == 2048
        assert s.layers == ((2, 6), (2, 5))
        assert s.flat_dims() == (2,) * 11

    def test_single_layer(self):
        s = two_layer(3, 5, 1, 0)
        assert s.dims == (5, 5, 5)
        assert s.layers == ((5, 3),)
        assert s.factors == ((5,), (5,), (5,))

    def test_three_layers(self):
        s = MixedSystem.layered([(2, 3), (2, 3), (2, 3)])
        assert s.dims == (8, 8, 8)
        assert s.layers == ((2, 3), (2, 3), (2, 3))
        assert s.factors == ((2, 2, 2),) * 3

    def test_general_dims_have_no_layer_view(self):
        s = MixedSystem(((3,), (3,), (3,), (3,), (2,)))
        assert s.dims == (3, 3, 3, 3, 2)
        assert s.layers is None
        with pytest.raises(ValueError):
            format_word(s, ErrorWord.identity(s))

    def test_second_layer_off_the_prefix_has_no_layer_view(self):
        # layer 1 exists on particle 1 but not on particle 0
        assert MixedSystem(((2,), (2, 3))).layers is None

    def test_layer_nesting_enforced(self):
        with pytest.raises(ValueError):
            MixedSystem.layered([(2, 3), (2, 4)])
        with pytest.raises(ValueError):
            MixedSystem.layered([(2, 3), (2, 0)])

    def test_axis_layout(self):
        s = two_layer(3, 2, 3, 2)
        assert s.factors == ((2, 3), (2, 3), (2,))
        # particle-major: particle 0 layer 1 is axis 1, particle 2 layer 0 axis 4
        assert s.flat_dims() == (2, 3, 2, 3, 2)

    def test_json_round_trip(self):
        s = two_layer(4, 2, 2, 2)
        assert MixedSystem.from_json(s.to_json()) == s


class TestWeight:
    def test_identity(self):
        s = two_layer(4, 2, 2, 4)
        assert weight(ErrorWord.identity(s), s) == 0

    def test_union_across_layers(self):
        s = two_layer(6, 2, 2, 5)
        e = word_from_layers(
            s,
            [ModVec(2, (1, 0, 0, 1, 0, 0)), ModVec.zeros(2, 5)],
            [ModVec.zeros(2, 6), ModVec(2, (0, 0, 1, 1, 0))],
        )
        assert weight(e, s) == 3  # particles {0,3} union {2,3}

    def test_union_within_full_layers(self):
        s = two_layer(6, 2, 2, 6)
        e = word_from_layers(
            s,
            [ModVec.zeros(2, 6), ModVec(2, (1, 0, 1, 0, 0, 1))],
            [ModVec(2, (0, 0, 1, 1, 0, 1)), ModVec.zeros(2, 6)],
        )
        assert weight(e, s) == 4  # particles {2,3,5} union {0,2,5}


class TestEnumerate:
    def test_single_qubit(self):
        s = two_layer(1, 2, 1, 0)
        labels = [(e.x, e.z) for e in enumerate_errors(s, 1)]
        assert labels == [
            (((0,),), ((1,),)),
            (((1,),), ((0,),)),
            (((1,),), ((1,),)),
        ]

    def test_ququart_count(self):
        s = two_layer(6, 2, 2, 6)
        got = sum(1 for _ in enumerate_errors(s, 1))
        assert got == 90  # 6 * (16 - 1)
        assert count_errors(s, 1) == 90

    def test_mixed_weight2_count_matches_formula(self):
        s = two_layer(5, 2, 2, 3)
        assert s.dims == (4, 4, 4, 2, 2)
        words = list(enumerate_errors(s, 2))
        assert len(words) == count_errors(s, 2)
        assert len(set((w.x, w.z) for w in words)) == len(words)
        assert all(1 <= weight(w, s) <= 2 for w in words)

    def test_zero_weight_yields_nothing(self):
        s = two_layer(2, 3, 1, 0)
        assert list(enumerate_errors(s, 0)) == []

    def test_bad_wmax(self):
        s = two_layer(2, 3, 1, 0)
        with pytest.raises(ValueError):
            list(enumerate_errors(s, 3))

    def test_deterministic_order(self):
        s = two_layer(2, 2, 2, 1)
        first = [(e.x, e.z) for e in enumerate_errors(s, 2)]
        second = [(e.x, e.z) for e in enumerate_errors(s, 2)]
        assert first == second
        # support {0} before {1}, then the pair
        w0 = weight(ErrorWord(*first[0]), s)
        assert w0 == 1


def oracle_errors(sys, w_max):
    """(support, x, z) of every error, straight from itertools: supports
    by size in combinations order, then one non-identity operator per
    particle of the support, each particle's operators in lexicographic
    order of the digits x0, z0, x1, z1, ..."""
    ops = []
    for f in sys.factors:
        digits = itertools.product(*(range(m) for m in f for _ in "xz"))
        ops.append([(t[0::2], t[1::2]) for t in digits if any(t)])
    out = []
    for k in range(1, w_max + 1):
        for supp in itertools.combinations(range(sys.n), k):
            for choice in itertools.product(*(ops[i] for i in supp)):
                x = [(0,) * len(f) for f in sys.factors]
                z = list(x)
                for i, (xd, zd) in zip(supp, choice):
                    x[i], z[i] = xd, zd
                out.append((supp, tuple(x), tuple(z)))
    return out


ORDER_LAYOUTS = [((2, 2), (2, 2), (2,)), ((3,), (4,), (2, 3)),
                 ((4, 2), (4,), (4,), (2,))]


class TestEnumeratorOrder:
    @pytest.mark.parametrize("factors", ORDER_LAYOUTS)
    def test_words_match_itertools_oracle(self, factors):
        sys = MixedSystem(factors)
        for w in range(sys.n + 1):
            want = oracle_errors(sys, w)
            got = list(enumerate_errors(sys, w))
            assert [(e.x, e.z) for e in got] == [(x, z) for _, x, z in want]
            assert all(e.phase == PHASE_ONE for e in got)
            assert len(got) == count_errors(sys, w)

    @pytest.mark.parametrize("factors", ORDER_LAYOUTS)
    def test_blocks_are_interleaved_digit_rows(self, factors, monkeypatch):
        # a small slice size splits most supports across several blocks
        monkeypatch.setattr(errors, "_BLOCK_ROWS", 7)
        sys = MixedSystem(factors)
        want = oracle_errors(sys, sys.n)
        rows = []
        for supp, block in error_blocks(word_radices(sys), sys.n):
            assert 1 <= len(block) <= 7 and block.dtype == np.int64
            rows += [(supp, r) for r in block.tolist()]
        assert len(rows) == len(want)
        for (supp, row), (want_supp, x, z) in zip(rows, want):
            assert supp == want_supp
            interleaved = [a for i in supp for xz in zip(x[i], z[i]) for a in xz]
            assert row == interleaved

    def test_rows_slice_the_support_block(self):
        radices = word_radices(MixedSystem(((2, 3), (4,), (2,))))
        whole = support_rows(radices, (0, 2), 0, 35 * 3)
        assert whole.shape == (35 * 3, 6)
        assert np.array_equal(support_rows(radices, (0, 2), 10, 40), whole[10:40])
        assert np.array_equal(support_rows(radices, (0, 2), 100, 999), whole[100:])

    def test_support_order_reads_digit_grids_as_rows(self):
        # grid[x, z] holding one digit of the flat shift x or phase z on S,
        # read in support order, is that digit's column of the block
        sys = MixedSystem(((2, 3), (4,), (3,), (2, 2)))
        radices = word_radices(sys)
        for supp in supports(sys.n, sys.n):
            dims = [m for i in supp for m in sys.factors[i]]
            U = np.indices(dims).reshape(len(dims), -1)
            dS = U.shape[1]
            cols = [in_support_order(radices, supp, grid)
                    for u in U for grid in (np.tile(u[:, None], dS), np.tile(u, (dS, 1)))]
            assert np.array_equal(np.stack(cols, axis=1),
                                  support_rows(radices, supp, 0, dS * dS))

    def test_x_digit_labels(self):
        # the clique module enumerates labels with one digit per factor
        got = [r for _, b in error_blocks(((2, 3), (2,)), 2) for r in b.tolist()]
        assert got == [[0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [1],
                       [0, 1, 1], [0, 2, 1], [1, 0, 1], [1, 1, 1], [1, 2, 1]]


def single(sys, particle, layer, a, b):
    x = [[0] * len(f) for f in sys.factors]
    z = [[0] * len(f) for f in sys.factors]
    x[particle][layer] = a
    z[particle][layer] = b
    return ErrorWord(tuple(tuple(r) for r in x), tuple(tuple(r) for r in z))


class TestMatrices:
    def test_identity(self):
        s = two_layer(2, 2, 1, 0)
        np.testing.assert_allclose(error_matrix(ErrorWord.identity(s), s), np.eye(4))

    def test_shift_on_qutrit(self):
        s = two_layer(1, 3, 1, 0)
        X = error_matrix(single(s, 0, 0, 1, 0), s)
        want = np.zeros((3, 3))
        for j in range(3):
            want[(j + 1) % 3, j] = 1
        np.testing.assert_allclose(X, want, atol=1e-12)

    def test_phase_on_qutrit(self):
        s = two_layer(1, 3, 1, 0)
        Z = error_matrix(single(s, 0, 0, 0, 1), s)
        w = np.exp(2j * np.pi / 3)
        np.testing.assert_allclose(Z, np.diag([1, w, w * w]), atol=1e-12)

    def test_zx_order(self):
        s = two_layer(1, 2, 1, 0)
        X = error_matrix(single(s, 0, 0, 1, 0), s)
        Z = error_matrix(single(s, 0, 0, 0, 1), s)
        XZ = error_matrix(single(s, 0, 0, 1, 1), s)
        np.testing.assert_allclose(XZ, X @ Z, atol=1e-12)

    def test_unitary(self):
        s = two_layer(2, 2, 3, 1)
        for e in itertools.islice(enumerate_errors(s, 2), 0, 200, 7):
            U = error_matrix(e, s)
            np.testing.assert_allclose(U.conj().T @ U, np.eye(s.total_dim), atol=1e-12)

    def test_cap(self, monkeypatch):
        s = two_layer(2, 2, 1, 0)
        monkeypatch.setenv("MIXEDQEC_DIM_CAP", "3")
        with pytest.raises(DimensionCapError):
            error_matrix(ErrorWord.identity(s), s)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("MIXEDQEC_DIM_CAP", "7")
        assert dim_cap() == 7
        monkeypatch.delenv("MIXEDQEC_DIM_CAP")
        assert dim_cap() == 65536

    @pytest.mark.parametrize("phase, scalar", [(Phase(1, 2), -1), (Phase(1, 4), 1j),
                                               (Phase(3, 4), -1j)], ids=["-1", "i", "-i"])
    def test_quarter_turn_phase_is_exact(self, phase, scalar):
        # the identity word times -1, i or -i multiplies a vector by exactly
        # that scalar, with no rounding residue in the other part, and a
        # phase digit of a Z_4 factor reaches the same exact roots
        s = MixedSystem(((4,), (2,)))
        v = np.random.default_rng(41).normal(size=(s.total_dim, 3))
        I = ErrorWord.identity(s)
        assert np.array_equal(apply_error(ErrorWord(I.x, I.z, phase), s, v), scalar * v)
        z = 4 * phase.k // phase.L
        got = apply_error(ErrorWord(I.x, ((z,), (0,)), phase), s, v).reshape(4, 2, 3)
        for j in range(4):
            assert np.array_equal(got[j], scalar * 1j ** (z * j % 4) * v.reshape(4, 2, 3)[j])

    def test_apply_matches_matrix(self):
        s = MixedSystem.layered([(2, 3), (3, 2)])
        rng = np.random.default_rng(7)
        v = rng.normal(size=(s.total_dim, 2)) + 1j * rng.normal(size=(s.total_dim, 2))
        for e in itertools.islice(enumerate_errors(s, 2), 0, 500, 31):
            np.testing.assert_allclose(
                apply_error(e, s, v), error_matrix(e, s) @ v, atol=1e-12)


def element_word(sys, N, digits, p):
    """The error word of one tableau element: its flat x digits, then its
    z digits, and the phase exponent p mod N."""
    F = len(sys.flat_dims())
    cuts = np.cumsum([0] + [len(f) for f in sys.factors])
    split = lambda row: tuple(tuple(row[a:b]) for a, b in zip(cuts, cuts[1:]))
    return ErrorWord(split(digits[:F].tolist()), split(digits[F:].tolist()),
                     Phase(int(p), N))


class TestCompose:
    """The product of two tableau elements is the operator product."""

    @pytest.mark.parametrize("layers", [[(2, 1)], [(3, 1)], [(2, 2), (3, 1)]])
    def test_matches_matrix_product(self, layers):
        s = MixedSystem.layered(layers)
        words = list(enumerate_errors(s, s.n)) + [ErrorWord.identity(s)]
        step = max(1, len(words) // 12)
        sample = words[::step]
        tab = _Tableau(s, sample)
        rows = (tab.digits, tab.P)
        products = zip(*tab.mul(rows, rows))
        for e1 in sample:
            for e2 in sample:
                got = error_matrix(element_word(s, tab.N, *next(products)), s)
                want = error_matrix(e1, s) @ error_matrix(e2, s)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_phase_is_exact(self):
        s = two_layer(1, 3, 1, 0)
        Z = single(s, 0, 0, 0, 1)
        X = single(s, 0, 0, 1, 0)
        tab = _Tableau(s, [Z, X])
        rows = (tab.digits, tab.P)
        zx = element_word(s, tab.N, *(a[1] for a in tab.mul(rows, rows)))  # Z X
        assert zx.phase == Phase(1, 3)
        assert zx.x == X.x and zx.z == Z.z


class TestWordOrder:
    def test_orders(self):
        s = MixedSystem.layered([(2, 1), (3, 1)])
        words = [ErrorWord.identity(s), single(s, 0, 0, 1, 0), single(s, 0, 1, 1, 0),
                 ErrorWord(((1, 1),), ((0, 0),))]
        assert _Tableau(s, words).orders.tolist() == [1, 2, 3, 6]


class TestNotation:
    def test_round_trip(self):
        s = two_layer(6, 2, 2, 5)
        text = "Z^{2345}Z^{1'}"
        w = parse_word(s, text)
        assert format_word(s, w) == text
        assert [zi[0] for zi in w.z] == [0, 1, 1, 1, 1, 0]
        assert [zi[1] for zi in w.z[:5]] == [1, 0, 0, 0, 0]

    def test_powers_repeat_digits(self):
        s = two_layer(5, 3, 1, 0)
        w = parse_word(s, "X^{55}Z^{12}")
        assert w.x[4][0] == 2
        assert format_word(s, w) == "X^{55}Z^{12}"

    def test_identity(self):
        s = two_layer(3, 2, 1, 0)
        assert format_word(s, ErrorWord.identity(s)) == "I"
        assert label_is_identity(parse_word(s, "I"))

    def test_double_prime_layer(self):
        s = MixedSystem.layered([(2, 3), (2, 3), (2, 3)])
        w = parse_word(s, "Z^{3'}Z^{2''}")
        assert w.z[2][1] == 1 and w.z[1][2] == 1

    def test_rejects_garbage(self):
        s = two_layer(3, 2, 1, 0)
        for bad in ["Q^{1}", "X1", "X^{9}", "X^{1'}", "X^{a}"]:
            with pytest.raises(ValueError):
                parse_word(s, bad)
