"""Purity set, uncoverable differences, clique checking, closure, search.

The oracles here recompute the defining sets by brute force through the
error-word layer (weight of an explicit word), independent of the label
arithmetic inside the clique module, and keep the loop form of the
clique conditions as the reference for check_clique's reports.
"""
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

import mixedqec
from mixedqec.algebra import ModVec, PHASE_ONE, phase_as_complex, phase_mul
from mixedqec.bounds import singleton_bound
from mixedqec.errors import IntegerRangeError, MixedSystem, weight
from mixedqec.graphs import WeightedGraph, loop_graph
from mixedqec.clique import (
    CliqueReport, CodingClique, check_clique, closure,
    covered_differences, purity_set, search_clique,
)
from mixedqec.verifier import Code
from oracles import (
    apply_error, dot_mod, enumerate_errors, graph_action, group_search, label_is_identity, omega,
    set_search, stabilizer_error_word,
)

L3 = loop_graph(3, 2)
L6 = loop_graph(6, 2)
L5_3 = loop_graph(5, 3)


def vec(m, *entries):
    return ModVec.of(m, entries)


def layer_system(graphs):
    return MixedSystem.layered([(g.m, g.n) for g in graphs])


def all_vectors(graphs):
    """Every per-layer phase vector, in lexicographic order."""
    spaces = [
        [ModVec(g.m, entries) for entries in itertools.product(range(g.m), repeat=g.n)]
        for g in graphs
    ]
    return itertools.product(*spaces)


def flat(v):
    return tuple(a for part in v for a in part.entries)


def layer_vec(sys, digits, layer):
    """A word's x or z digits on one graph layer, as a ModVec."""
    m, nl = sys.layers[layer]
    return ModVec(m, tuple(digits[i][layer] for i in range(nl)))


def condition_ii_phase(ss, cs):
    """prod_l w_{m_l}^{s_l . c_l}, exactly."""
    ph = PHASE_ONE
    for s, c in zip(ss, cs):
        ph = phase_mul(ph, omega(s.m, dot_mod(s, c)))
    return ph


def brute_purity(graphs, d):
    """Filter every exponent tuple by the weight of its stabilizer word."""
    sys = layer_system(graphs)
    out = []
    for ss in all_vectors(graphs):
        w = stabilizer_error_word(sys, graphs, ss)
        if weight(w, sys) < d:
            out.append(ss)
    return set(out)


def brute_covered(graphs, d):
    """Differences t_l - s_l G_l over every error word of weight in (0, d)."""
    sys = layer_system(graphs)
    out = set()
    for e in enumerate_errors(sys, d - 1):
        if label_is_identity(e):
            continue
        deltas = tuple(layer_vec(sys, e.z, l) - graph_action(layer_vec(sys, e.x, l), g)
                       for l, g in enumerate(graphs))
        out.add(deltas)
    return out


def reference_report(C, pure, covered):
    """check_clique as a loop over ModVec labels: pure is the purity set
    in lexicographic order, covered the covered differences."""
    def js(v):
        return [list(part.entries) for part in v]

    zero = tuple(ModVec.zeros(g.m, g.n) for g in C.graphs)
    zero_ok = zero in set(C.vectors)
    witness = None if zero_ok else {"condition": "i", "missing": js(zero)}

    phases_ok = True
    for ss in pure:
        for c in C.vectors:
            if condition_ii_phase(ss, c) != PHASE_ONE:
                phases_ok = False
                if witness is None:
                    witness = {"condition": "ii", "purity_label": js(ss), "vector": js(c)}
                break
        if not phases_ok:
            break

    diffs_ok = True
    for i, ci in enumerate(C.vectors):
        for j, cj in enumerate(C.vectors):
            if i == j:
                continue
            delta = tuple(a - b for a, b in zip(ci, cj))
            if delta in covered:
                diffs_ok = False
                if witness is None:
                    witness = {"condition": "iii", "pair": [js(ci), js(cj)],
                               "difference": js(delta)}
                break
        if not diffs_ok:
            break

    ok = zero_ok and phases_ok and diffs_ok
    return CliqueReport(ok, zero_ok, phases_ok, diffs_ok, len(pure), witness)


class TestPuritySet:
    def test_d1_only_zero(self):
        ps = purity_set((L3, L3), 1)
        assert len(ps) == 1
        assert not any(flat(ps[0]))

    def test_l3_pair_matches_brute_force(self):
        got = set(purity_set((L3, L3), 2))
        assert got == brute_purity((L3, L3), 2)

    def test_l6_pair_matches_brute_force(self):
        got = set(purity_set((L6, L6), 3))
        assert got == brute_purity((L6, L6), 3)

    def test_l5_mod3_matches_brute_force(self):
        got = set(purity_set((L5_3,), 2))
        assert got == brute_purity((L5_3,), 2)

    def test_contains_zero(self):
        for d in (1, 2, 3):
            ps = purity_set((L3, L3), d)
            assert any(not any(flat(s)) for s in ps)


class TestUncoverable:
    def test_l3_pair_matches_brute_force(self):
        assert covered_differences((L3, L3), 2) == brute_covered((L3, L3), 2)

    def test_l6_pair_matches_brute_force(self):
        assert covered_differences((L6, L6), 3) == brute_covered((L6, L6), 3)

    def test_zero_difference_membership_matches_scan(self):
        # the definition bounds error weight strictly above 0, and on a
        # loop graph no weight-1 word reduces to the zero label, so the
        # zero difference is uncoverable at d=2 (the scan decides this)
        zero = (ModVec.zeros(2, 3), ModVec.zeros(2, 3))
        covered = covered_differences((L3, L3), 2)
        assert (zero in covered) == (zero in brute_covered((L3, L3), 2))
        assert zero not in covered

    def test_wide_support_difference_uncoverable(self):
        # a weight-2 error reaches at most 2 own positions plus 4 loop
        # neighbours per layer, and this split defeats every such reach
        deltas = (vec(2, 0, 0, 0, 0, 1, 1), vec(2, 1, 1, 1, 1, 0, 0))
        assert deltas not in covered_differences((L6, L6), 3)

    def test_mixed_moduli_match_brute_force(self):
        graphs = (loop_graph(4, 3), loop_graph(3, 2))
        for d in (1, 2, 3):
            assert covered_differences(graphs, d) == brute_covered(graphs, d)


EX1_GENS = [
    (vec(2, 1, 0, 0, 1, 0, 0), vec(2, 0, 0, 1, 1, 0, 1)),
    (vec(2, 0, 1, 0, 0, 1, 0), vec(2, 0, 0, 1, 0, 1, 1)),
    (vec(2, 0, 0, 1, 1, 0, 1), vec(2, 1, 0, 1, 0, 0, 1)),
    (vec(2, 0, 0, 0, 1, 1, 0), vec(2, 1, 1, 0, 0, 0, 0)),
]

EX2_GENS_8 = [
    (vec(2, 1, 0, 0, 0, 0, 0), vec(2, 1, 1, 1, 1, 1)),
    (vec(2, 0, 1, 1, 1, 1, 0), vec(2, 1, 0, 0, 0, 0)),
    (vec(2, 0, 0, 0, 0, 1, 1), vec(2, 0, 1, 0, 1, 0)),
]


class TestClosure:
    def test_sixteen_element_group(self):
        assert len(closure(EX1_GENS)) == 16

    def test_eight_element_group(self):
        assert len(closure(EX2_GENS_8)) == 8

    def test_single_generator_order(self):
        g = (vec(3, 1, 0, 0),)
        assert len(closure([g])) == 3
        g = (vec(4, 1, 0, 0),)
        assert len(closure([g])) == 4

    def test_contains_zero_and_closed(self):
        vecs = closure(EX2_GENS_8)
        assert any(not any(flat(s)) for s in vecs)
        vs = set(vecs)
        for a in vs:
            for b in vs:
                s = tuple(x + y for x, y in zip(a, b))
                assert s in vs

    @given(st.lists(
        st.tuples(st.lists(st.integers(0, 3), min_size=3, max_size=3)),
        min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_closure_is_a_group_mod4(self, raw):
        gens = [(ModVec.of(4, tuple(t[0])),) for t in raw]
        vs = set(closure(gens))
        assert (ModVec.zeros(4, 3),) in vs
        for a in vs:
            assert tuple(-x for x in a) in vs
            for b in vs:
                assert tuple(x + y for x, y in zip(a, b)) in vs


class TestCheckClique:
    def test_singleton_zero_passes(self):
        c = CodingClique(graphs=(L3, L3), d=2,
                        vectors=((ModVec.zeros(2, 3), ModVec.zeros(2, 3)),))
        assert check_clique(c).ok

    def test_sixteen_vector_closure_passes_d3(self):
        c = CodingClique(graphs=(L6, L6), d=3, vectors=closure(EX1_GENS))
        rep = check_clique(c)
        assert rep.ok
        assert rep.zero_member and rep.purity_phases_trivial
        assert rep.differences_uncoverable

    def test_missing_zero_fails(self):
        c = CodingClique(graphs=(L3, L3), d=2,
                        vectors=((vec(2, 1, 0, 0), vec(2, 0, 1, 0)),))
        rep = check_clique(c)
        assert not rep.ok and not rep.zero_member

    def test_covered_difference_fails_with_witness(self):
        # 0 and Z^1 differ by delta = e1, reachable by the weight-1 error Z^1
        c = CodingClique(graphs=(L3, L3), d=2, vectors=(
            (ModVec.zeros(2, 3), ModVec.zeros(2, 3)),
            (vec(2, 1, 0, 0), vec(2, 0, 0, 0)),
        ))
        rep = check_clique(c)
        assert not rep.ok and not rep.differences_uncoverable
        assert rep.witness is not None

    def test_purity_phase_violation_detected(self):
        # on (L6, L4) at d=3 the alternating patterns on the 4-loop map
        # to zero under the adjacency, giving weight-2 purity elements
        L4 = loop_graph(4, 2)
        ps = purity_set((L6, L4), 3)
        assert len(ps) == 3
        nontrivial = [s for s in ps if any(flat(s))]
        assert nontrivial
        bad = None
        for cand in all_vectors((L6, L4)):
            if any(condition_ii_phase(s, cand) != PHASE_ONE for s in nontrivial):
                bad = cand
                break
        assert bad is not None
        c = CodingClique(graphs=(L6, L4), d=3,
                        vectors=((ModVec.zeros(2, 6), ModVec.zeros(2, 4)), bad))
        rep = check_clique(c)
        assert not rep.ok and not rep.purity_phases_trivial

    def test_report_json_shape(self):
        c = CodingClique(graphs=(L6, L6), d=3, vectors=closure(EX1_GENS))
        js = check_clique(c).to_json()
        assert js["verdict"] == "pass"
        assert set(js["conditions"]) == {"zero_member", "purity_phases_trivial",
                                         "differences_uncoverable"}
        assert js["purity_size"] == 1


class TestLabels:
    """``CodingClique.labels``: the vectors as int64 rows, layer after
    layer, against the per-layer flattening of ``vectors``."""

    @pytest.mark.parametrize("graphs, gens", [
        ((L6, L6), EX1_GENS),
        ((L3,), [(ModVec(2, (1, 1, 0)),)]),
        ((loop_graph(4, 4), loop_graph(3, 2)), [(ModVec(4, (1, 2, 3, 0)), ModVec(2, (1, 0, 1)))]),
        ((loop_graph(5, 3), loop_graph(3, 2)), [(ModVec(3, (2, 0, 1, 0, 0)), ModVec(2, (0, 1, 1)))]),
    ])
    def test_labels_are_the_flattened_vectors(self, graphs, gens):
        c = CodingClique(graphs=graphs, d=1, vectors=closure(gens))
        flat = [[a for part in v for a in part.entries] for v in c.vectors]
        assert c.labels.dtype == np.int64
        assert c.labels.tolist() == flat
        assert not c.labels.flags.writeable

    def test_equality_and_hash_ignore_labels(self):
        a = CodingClique(graphs=(L6, L6), d=3, vectors=closure(EX1_GENS))
        b = CodingClique(graphs=(L6, L6), d=3, vectors=closure(EX1_GENS))
        assert a.labels is not b.labels
        assert a == b and hash(a) == hash(b)
        assert "labels" not in repr(a)

    def test_duplicate_vectors_rejected(self):
        v = (ModVec(2, (1, 0, 1)), ModVec(2, (0, 1, 1)))
        zero = (ModVec.zeros(2, 3), ModVec.zeros(2, 3))
        with pytest.raises(ValueError, match="clique vectors must be distinct"):
            CodingClique(graphs=(L3, L3), d=2, vectors=(zero, v, v))

    @pytest.mark.parametrize("vector, message", [
        ((ModVec.zeros(2, 3),), "layer count"),
        ((ModVec.zeros(2, 3), ModVec.zeros(3, 3)), "does not match its layer"),
        ((ModVec.zeros(2, 3), ModVec.zeros(2, 4)), "does not match its layer"),
    ])
    def test_mismatched_vectors_rejected(self, vector, message):
        with pytest.raises(ValueError, match=message):
            CodingClique(graphs=(L3, L3), d=2, vectors=(vector,))

    def test_label_space_beyond_int64_refused(self):
        # 2^64 labels: the keys would overflow, which is bad input
        with pytest.raises(IntegerRangeError, match="exceeds int64 keys"):
            CodingClique(graphs=(loop_graph(64, 2),), d=1,
                         vectors=((ModVec.zeros(2, 64),),))


class TestSearch:
    def test_l3_pair_finds_size_4(self):
        res = search_clique((L3, L3), d=2, target_K=4)
        assert res.flag in ("target", "ok")
        assert len(res.clique.vectors) >= 4
        assert check_clique(res.clique).ok

    def test_d1_whole_space(self):
        res = search_clique((L3, L3), d=1, target_K=64)
        assert len(res.clique.vectors) == 64

    def test_set_mode_matches_group_mode_size(self):
        a = search_clique((L3, L3), d=2, target_K=4, mode="group")
        b = search_clique((L3, L3), d=2, target_K=4, mode="set")
        assert len(a.clique.vectors) == len(b.clique.vectors) == 4

    def test_budget_flag(self):
        res = search_clique((L6, L6), d=3, target_K=16, budget=1, mode="set")
        assert res.flag in ("budget", "target")
        assert check_clique(res.clique).ok

    def test_deterministic(self):
        a = search_clique((L3, L3), d=2, target_K=4)
        b = search_clique((L3, L3), d=2, target_K=4)
        assert a.clique.vectors == b.clique.vectors
        assert a.nodes_used == b.nodes_used

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            search_clique((L3, L3), d=2, target_K=0)

    @given(st.integers(3, 5), st.integers(0, 1))
    @settings(max_examples=10, deadline=None)
    def test_search_output_always_checks(self, n, extra_layer):
        graphs = (loop_graph(n, 2),) * (2 if extra_layer else 1)
        res = search_clique(graphs, d=2, target_K=4)
        assert check_clique(res.clique).ok

    @pytest.mark.parametrize("mode", ["group", "set"])
    def test_stops_at_target(self, mode):
        # K = 2 is reached at the first node; the search used to go on
        # through every remaining candidate at every level
        res = search_clique((loop_graph(7, 2),) * 2, 3, target_K=2, mode=mode)
        assert (res.clique.K, res.nodes_used, res.flag) == (2, 1, "target")

    def test_group_target_below_budget(self):
        res = search_clique((loop_graph(4, 2),) * 2, 2, target_K=8, budget=500)
        assert (res.clique.K, res.nodes_used, res.flag) == (8, 29, "target")
        assert check_clique(res.clique).ok

    def test_set_mode_reaches_the_7_cycle_optimum(self):
        # ((7, 4^5, 2))_4 as a set-mode clique, 1024 levels deep: the
        # search used to recurse once per level and raise RecursionError
        L7 = loop_graph(7, 2)
        res = search_clique((L7, L7), d=2, target_K=1024, budget=3000, mode="set")
        assert (res.clique.K, res.nodes_used, res.flag) == (1024, 1023, "target")
        assert check_clique(res.clique).ok


def stabilizer_expectation(graphs, ss, cs):
    """<c| S_s |c> for the codeword Z^c |G> and the exact stabilizer
    element of label s: the conjugate of the condition-(ii) phase."""
    sys = layer_system(graphs)
    cl = CodingClique(graphs=tuple(graphs), d=1, vectors=(tuple(cs),))
    psi = Code.from_clique(cl).basis()[:, 0]
    return np.vdot(psi, apply_error(stabilizer_error_word(sys, graphs, ss), sys, psi))


class TestConditionIIPhase:
    # the oracles' loop form of condition (ii), checked against the
    # action of the stabilizer element on the codeword state
    def test_exact_product_over_layers(self):
        s = (vec(2, 1, 1, 0), vec(3, 1, 0, 0))
        c = (vec(2, 1, 0, 0), vec(3, 2, 0, 0))
        # w_2^{1} * w_3^{2}: half turn plus two thirds = 1/6 turn mod 1
        ph = condition_ii_phase(s, c)
        assert (ph.k / ph.L) % 1 == pytest.approx(1 / 6)
        got = stabilizer_expectation((L3, loop_graph(3, 3)), s, c)
        assert got == pytest.approx(np.conj(phase_as_complex(ph)))

    def test_zero_vector_gives_one(self):
        s = (vec(2, 1, 1, 0),)
        c = (ModVec.zeros(2, 3),)
        assert condition_ii_phase(s, c) == PHASE_ONE
        assert stabilizer_expectation((L3,), s, c) == pytest.approx(1)


def random_graph(rng, n, m):
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            adj[i][j] = adj[j][i] = rng.randrange(m)
    return WeightedGraph(n, m, tuple(tuple(row) for row in adj))


def oracle_cases():
    """(graphs, d) over mixed moduli and unequal layer widths."""
    rng = random.Random(4242)
    cases = [((loop_graph(4, 3), loop_graph(3, 2)), 2),
             ((loop_graph(4, 3), loop_graph(3, 2)), 3),
             ((L6, loop_graph(4, 2)), 3)]
    for shape in (((4, 3), (3, 2)), ((5, 2), (2, 3)), ((3, 4), (2, 2)), ((4, 2), (4, 2), (1, 3))):
        graphs = tuple(random_graph(rng, n, m) for n, m in shape)
        cases += [(graphs, 2), (graphs, 3)]
    return cases


@st.composite
def search_cases(draw):
    """(graphs, d, target_K, budget): a random weighted graph over one
    Z_2 ... Z_5 layer, or a nested pair of layers, of at most 1024
    labels."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 5))
    n = draw(st.integers(2, {2: 8, 3: 6, 4: 5, 5: 4}[m]))
    shape = [(n, m)]
    if draw(st.booleans()):
        m2 = draw(st.integers(2, 5))
        n2 = draw(st.integers(1, n))
        if m ** n * m2 ** n2 <= 1024:
            shape.append((n2, m2))
    graphs = tuple(random_graph(rng, n, m) for n, m in shape)
    budget = draw(st.sampled_from([0, 1, 2, 3, 7, 8, 15, 16]) | st.integers(0, 300))
    target = draw(st.integers(1, 64) | st.just(10 ** 6))
    return graphs, draw(st.integers(1, 3)), target, budget


class TestGroupSearchOracle:
    # the windowed group search against the one-candidate-at-a-time loop
    @given(search_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_one_candidate_loop(self, case):
        graphs, d, target, budget = case
        res = search_clique(graphs, d, target_K=target, budget=budget, mode="group")
        assert (res.clique.vectors, res.nodes_used, res.flag) == \
            group_search(graphs, d, target, budget)

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 7, 8, 15, 16, 100, 1000])
    @pytest.mark.parametrize("graphs, d", [
        ((loop_graph(4, 3),), 2), ((loop_graph(3, 5),), 1), ((loop_graph(3, 4), L3), 2),
        ((L6, loop_graph(4, 2)), 3)])
    def test_budgets_match_one_candidate_loop(self, graphs, d, budget):
        res = search_clique(graphs, d, target_K=10 ** 6, budget=budget, mode="group")
        assert (res.clique.vectors, res.nodes_used, res.flag) == \
            group_search(graphs, d, 10 ** 6, budget)


SET_ORACLE_GRAPHS = [
    ((loop_graph(4, 3),), 2), ((loop_graph(3, 5),), 1), ((loop_graph(3, 4), L3), 2),
    ((L6, loop_graph(4, 2)), 3), ((loop_graph(5, 3), L3), 2), ((loop_graph(5, 2),) * 2, 2)]


class TestSetSearchOracle:
    # the stack search over one alive mask, with its bitset tail, against
    # the recursion on filtered pool copies.  Pools of at most 1024
    # labels rarely stay above the tail cutoff of 64 for long; patched to
    # 0 or 3, the cutoff sends most levels through the alive mask and
    # its undo log
    @given(search_cases(), st.sampled_from([0, 3, 64]))
    @settings(max_examples=200, deadline=None)
    def test_matches_recursive_loop(self, case, cutoff):
        graphs, d, target, budget = case
        with mock.patch("mixedqec.clique._BITSET", cutoff):
            res = search_clique(graphs, d, target_K=target, budget=budget, mode="set")
        assert (res.clique.vectors, res.nodes_used, res.flag) == \
            set_search(graphs, d, target, budget)

    @pytest.mark.parametrize("cutoff", [0, 64])
    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 7, 8, 15, 16, 100, 1000])
    @pytest.mark.parametrize("graphs, d", SET_ORACLE_GRAPHS)
    def test_budgets_match_recursive_loop(self, graphs, d, budget, cutoff):
        with mock.patch("mixedqec.clique._BITSET", cutoff):
            res = search_clique(graphs, d, target_K=10 ** 6, budget=budget, mode="set")
        assert (res.clique.vectors, res.nodes_used, res.flag) == \
            set_search(graphs, d, 10 ** 6, budget)


class TestCheckCliqueOracle:
    def test_reports_match_loop_reference(self):
        rng = random.Random(20261017)
        seen = set()
        for graphs, d in oracle_cases():
            pure = sorted(brute_purity(graphs, d), key=flat)
            covered = brute_covered(graphs, d)
            assert list(purity_set(graphs, d)) == pure
            labels = list(all_vectors(graphs))
            for trial in range(24):
                if trial % 2:
                    gens = rng.sample(labels[1:], rng.randint(1, 2))
                    vecs = list(closure(gens))
                    if trial % 4 == 1:
                        vecs.remove(labels[0])
                        vecs = vecs or [labels[1]]
                    rng.shuffle(vecs)
                else:
                    vecs = rng.sample(labels, rng.randint(1, 5))
                C = CodingClique(graphs=graphs, d=d, vectors=tuple(vecs))
                want = reference_report(C, pure, covered).to_json()
                assert check_clique(C).to_json() == want, (graphs, d, vecs)
                seen.add(want.get("witness", {}).get("condition", "pass"))
        assert seen == {"i", "ii", "iii", "pass"}

    def test_n12_pair_d3_checks_fast(self):
        # the label space has 4^12 elements; purity and covered sets only
        # need the labels and errors on fewer than d particles
        L12 = loop_graph(12, 2)
        gens = [(vec(2, *([1] + [0] * 11)), vec(2, *([0, 1] + [0] * 9 + [1])))]
        C = CodingClique(graphs=(L12, L12), d=3, vectors=closure(gens))
        start = time.perf_counter()
        rep = check_clique(C)
        assert time.perf_counter() - start < 10.0
        assert rep.purity_size == len(brute_purity_ball((L12, L12), 3))

    def test_covered_set_memory_stays_small(self):
        # the weight < 4 error ball of two loop_graph(8, 2) layers has
        # about 195000 words, 50 MB as rows of 32 int64 columns; the
        # covered set needs only their keys
        L8 = loop_graph(8, 2)
        C = CodingClique(graphs=(L8, L8), d=4, vectors=((ModVec.zeros(2, 8),) * 2,))
        tracemalloc.start()
        try:
            assert check_clique(C).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def brute_purity_ball(graphs, d):
    """Purity labels of two qubit layers of equal width, searched among
    the labels whose own support has fewer than d particles and judged
    by the weight of the explicit stabilizer word."""
    sys = layer_system(graphs)
    n = graphs[0].n
    out = set()
    for k in range(d):
        for supp in itertools.combinations(range(n), k):
            for digits in itertools.product(range(1, 4), repeat=k):
                xs = [[0] * g.n for g in graphs]
                for i, dg in zip(supp, digits):
                    xs[0][i], xs[1][i] = dg & 1, dg >> 1
                ss = tuple(ModVec(2, tuple(x)) for x in xs)
                if weight(stabilizer_error_word(sys, graphs, ss), sys) < d:
                    out.add(ss)
    return out


# search_clique trajectories recorded with the ModVec implementation, and
# the 9- and 10-cycle ones with the one-candidate-at-a-time group loop:
# (mode, d, graphs as (n, m) loop graphs, budget, K, nodes_used, flag,
# vectors with layers joined by "|")
PINNED_SEARCHES = [
    ("group", 3, ((6, 2), (6, 2)), 1000, 8, 1000, "budget",
     "000000|000000 000001|010110 000010|101001 000011|111111 011000|000011 "
     "011001|010101 011010|101010 011011|111100"),
    ("group", 3, ((7, 2), (7, 2)), 1000, 8, 1000, "budget",
     "0000000|0000000 0000000|0011111 0000001|0100100 0000001|0111011 "
     "0000010|1001001 0000010|1010110 0000011|1101101 0000011|1110010"),
    ("set", 3, ((7, 2), (7, 2)), 1000, 32, 1000, "budget",
     "0000000|0000000 0000000|0011111 0000001|0100100 0000001|0111011 "
     "0000010|1001001 0000010|1010110 0000011|1101101 0000011|1110010 "
     "0010100|1100011 0010100|1111100 0010101|1000111 0010101|1011000 "
     "0010110|0101010 0010110|0110101 0010111|0001110 0010111|0010001 "
     "1001100|0000010 1001100|0011101 1001101|0100110 1001101|0111001 "
     "1001110|1001011 1001110|1010100 1001111|1101111 1001111|1110000 "
     "1011000|1100001 1011000|1111110 1011001|1000101 1011001|1011010 "
     "1011010|0101000 1011010|0110111 1011011|0001100 1011011|0010011"),
    ("group", 2, ((4, 2), (4, 2)), 500, 16, 500, "budget",
     "0000|0000 0000|0011 0000|1100 0000|1111 0011|0000 0011|0011 0011|1100 "
     "0011|1111 1100|0000 1100|0011 1100|1100 1100|1111 1111|0000 1111|0011 "
     "1111|1100 1111|1111"),
    ("group", 2, ((5, 3),), 300, 27, 300, "budget",
     "00000 00011 00022 01100 01111 01122 02200 02211 02222 10101 10112 10120 "
     "11201 11212 11220 12001 12012 12020 20202 20210 20221 21002 21010 21021 "
     "22102 22110 22121"),
    ("set", 2, ((5, 3),), 300, 27, 300, "budget",
     "00000 00011 00022 01100 01111 01122 02200 02211 02222 10101 10112 10120 "
     "11201 11212 11220 12001 12012 12020 20202 20210 20221 21002 21010 21021 "
     "22102 22110 22121"),
    ("group", 3, ((9, 2),), 200000, 8, 200000, "budget",
     "000000000 000011111 001000110 001011001 010001100 010010011 011001010 011010101"),
    ("group", 3, ((10, 2),), 200000, 16, 200000, "budget",
     "0000000000 0000011111 0001000110 0001011001 0010001100 0010010011 0011001010 "
     "0011010101 0100100100 0100111011 0101100010 0101111101 0110101000 0110110111 "
     "0111101110 0111110001"),
    ("group", 2, ((4, 3), (3, 2)), 300, 9, 300, "budget",
     "0000|000 0011|000 0022|000 1100|000 1111|000 1122|000 2200|000 2211|000 "
     "2222|000"),
    ("set", 2, ((4, 3), (3, 2)), 300, 14, 300, "budget",
     "0000|000 0001|001 0002|010 0010|010 0011|011 0012|000 1000|001 1001|000 "
     "1002|011 1010|011 1011|101 1022|001 2012|010 2122|001"),
]


@pytest.mark.parametrize(
    "mode,d,shape,budget,K,nodes,flag,vectors", PINNED_SEARCHES,
    ids=[f"{mode}-d{d}-" + "-".join(f"loop{n}mod{m}" for n, m in shape)
         for mode, d, shape, *_ in PINNED_SEARCHES])
def test_search_trajectory_pinned(mode, d, shape, budget, K, nodes, flag, vectors):
    graphs = tuple(loop_graph(n, m) for n, m in shape)
    dims = [1] * shape[0][0]
    for n, m in shape:
        for i in range(n):
            dims[i] *= m
    res = search_clique(graphs, d, target_K=singleton_bound(tuple(dims), d) + 1,
                        budget=budget, mode=mode)
    got = " ".join("|".join("".join(map(str, p.entries)) for p in v)
                   for v in res.clique.vectors)
    assert (res.clique.K, res.nodes_used, res.flag) == (K, nodes, flag)
    assert got == vectors


NUMPY_MA_PROBE = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    print("preloaded")
    sys.exit()
from mixedqec.algebra import ModVec
from mixedqec.certificates import load_certificate, verify_certificate
from mixedqec.cli import _default_fixture_dir
from mixedqec.clique import CodingClique, check_clique, search_clique
from mixedqec.graphs import loop_graph
L3 = loop_graph(3, 2)
check_clique(CodingClique((L3, L3), 2, ((ModVec.zeros(2, 3),) * 2,)))
search_clique((loop_graph(5, 2),), 2, 4, budget=100)
root = _default_fixture_dir()
for name in ("3_4_2_q4.json", "6_16_3_stab.json"):
    verify_certificate(load_certificate(root / name), root)
print("numpy.ma" in sys.modules)
"""


SEARCH_PROBE = """
from mixedqec.clique import search_clique
from mixedqec.graphs import loop_graph
res = search_clique((loop_graph({n}, 2),) * 2, 3, target_K=10 ** 6, budget=1000, mode="{mode}")
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(res.nodes_used, res.flag, peak)
"""


def _search_peak_mb(n: int, mode: str) -> tuple[int, str, float]:
    """(nodes, flag, peak MB) of a 1000-node search on two n-cycle layers
    at d = 3 in a child process.  VmHWM is the peak resident memory of
    the child's own image: its ru_maxrss would start from the forking
    test process."""
    src = os.path.dirname(os.path.dirname(mixedqec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    nodes, flag, peak = subprocess.run(
        [sys.executable, "-c", SEARCH_PROBE.format(n=n, mode=mode)], env=env,
        capture_output=True, text=True, check=True).stdout.split()
    return int(nodes), flag, int(peak) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_set_search_memory_stays_small():
    # a filtered int64 copy of the pool per level peaked at 2 GB on two
    # 9-cycle layers at d = 3; the alive mask and the undo log are one
    # entry per label
    nodes, flag, peak = _search_peak_mb(9, "set")
    assert (nodes, flag) == (1000, "budget")
    assert peak < 300


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_group_search_memory_stays_small():
    # every candidate key as a Python int peaked at 229-252 MB on two
    # 11-cycle layers at d = 3 (4.2 M labels); only each window's run of
    # candidates is converted, and the peak is about 100 MB
    nodes, flag, peak = _search_peak_mb(11, "group")
    assert (nodes, flag) == (1000, "budget")
    assert peak < 160


def test_label_engine_does_not_import_numpy_ma():
    # a plain np.unique imports numpy.ma (about 14 ms) on its first call;
    # a clique check, a search and fixture verifications need none of it
    src = os.path.dirname(os.path.dirname(mixedqec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    if out == ["preloaded"]:
        pytest.skip("import numpy alone loads numpy.ma")
    assert out == ["False"]
