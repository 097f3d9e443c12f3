"""End-to-end CLI behavior: exit codes, JSON output, fixture suite."""
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mixedqec.certificates import Certificate, build_code, content_hash, load_certificate
from mixedqec.cli import _default_fixture_dir, main
from mixedqec.compose import clique_stabilizer_rows, paste_distance2, product_code
from mixedqec.errors import MixedSystem, dim_cap
from mixedqec.graphs import WeightedGraph, loop_graph
from mixedqec.projection import project_code
from mixedqec.verifier import verify_stabilizer

FIXTURES = _default_fixture_dir()


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "L3m2.json"
    p.write_text(json.dumps(loop_graph(3, 2).to_json()))
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestBounds:
    def test_report(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--dims", "4,4,4,4,4,2",
                         "--distance", "3")
        assert rc == 0
        report = json.loads(out)
        assert report["singleton"] == 8 and report["hamming"] == 25

    def test_verdict_with_K(self, capsys):
        rc, out, _ = run(capsys, "bounds", "--dims", "4,4,4,4,4,2",
                         "--distance", "3", "--K", "8")
        assert json.loads(out)["verdict"] == "optimal"

    def test_bad_dims_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--dims", "4,banana", "--distance", "2"])
        assert exc.value.code == 2

    def test_dimension_one_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--dims", "4,1", "--distance", "2"])
        assert exc.value.code == 2


class TestVerify:
    def test_fixture_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", str(FIXTURES / "3_4_2_q4.json"))
        assert rc == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_missing_file_exit_2(self, capsys):
        rc, _, err = run(capsys, "verify", "no_such_cert.json")
        assert rc == 2 and "not found" in err

    def test_bad_hash_exit_2(self, capsys):
        rc, _, err = run(capsys, "verify",
                         str(FIXTURES / "negatives" / "neg_bad_hash.json"))
        assert rc == 2 and "hash" in err

    def test_corrupt_clique_exit_1(self, capsys):
        rc, out, _ = run(capsys, "verify",
                         str(FIXTURES / "negatives" / "neg_bad_vector.json"))
        assert rc == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert report["checks"]["symbolic"]["witness"]

    def test_symbolic_only_skips_numeric(self, capsys):
        rc, out, _ = run(capsys, "verify", str(FIXTURES / "3_4_2_q4.json"),
                         "--symbolic")
        assert rc == 0
        assert "numeric" not in json.loads(out)["checks"]

    def test_update_writes_back(self, tmp_path, capsys):
        src = (FIXTURES / "3_4_2_q4.json").read_text()
        obj = json.loads(src)
        del obj["verification"]
        target = tmp_path / "c.json"
        target.write_text(json.dumps(obj))
        rc, _, _ = run(capsys, "verify", str(target), "--distance", "--update")
        assert rc == 0
        stored = json.loads(target.read_text())
        assert stored["verification"]["verdict"] == "pass"
        assert stored["verification"]["distance"] == 2
        assert stored["content_hash"] == json.loads(src)["content_hash"]

    def test_no_update_leaves_file(self, tmp_path, capsys):
        src = (FIXTURES / "3_4_2_q4.json").read_text()
        target = tmp_path / "c.json"
        target.write_text(src)
        run(capsys, "verify", str(target))
        assert target.read_text() == src

    def test_cap_skips_numeric_but_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", str(FIXTURES / "6_16_3_q4.json"),
                         "--dim-cap", "64")
        assert rc == 0
        report = json.loads(out)
        assert "skipped" in report["checks"]["numeric"]
        assert report["checks"]["symbolic"]["verdict"] == "pass"

    def test_cap_blocks_stabilizer_build_exit_2(self, capsys):
        rc, _, err = run(capsys, "verify", str(FIXTURES / "6_16_3_stab.json"),
                         "--dim-cap", "64")
        assert rc == 2 and "MIXEDQEC_DIM_CAP" in err

    @pytest.mark.parametrize("cap", ["1", "0"])
    def test_dim_cap_below_2_exit_2(self, cap, capsys):
        # the floor MIXEDQEC_DIM_CAP has: a cap of 1 skipped every numeric
        # check with "dimension 64 exceeds cap 1" and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(FIXTURES / "3_4_2_q4.json"), "--dim-cap", cap])
        assert exc.value.code == 2
        assert f"argument --dim-cap: must be >= 2, got {cap}" in capsys.readouterr().err

    def test_dim_cap_covers_the_projected_ancilla(self, monkeypatch, capsys):
        # a projection builds its ancilla's basis (D = 243) under the same
        # cap as every other array the command builds
        monkeypatch.setenv("MIXEDQEC_DIM_CAP", "100")
        rc, out, _ = run(capsys, "verify", str(FIXTURES / "5_9_2_proj.json"),
                         "--dim-cap", "1000")
        assert rc == 0 and json.loads(out)["verdict"] == "pass"

    def test_dim_cap_ends_with_the_command(self, monkeypatch, capsys):
        # --dim-cap holds for its own run only, one that exits 2 included;
        # afterwards dim_cap() and the next run read the environment again
        monkeypatch.setenv("MIXEDQEC_DIM_CAP", "100")
        proj = str(FIXTURES / "5_9_2_proj.json")
        assert run(capsys, "verify", proj, "--dim-cap", "1000")[0] == 0
        assert dim_cap() == 100
        assert run(capsys, "verify", str(FIXTURES / "6_16_3_stab.json"),
                   "--dim-cap", "1000")[0] == 2
        assert dim_cap() == 100
        rc, out, err = run(capsys, "verify", proj)
        assert rc == 2 and out == ""
        assert err.startswith("error: total dimension 243 exceeds cap 100;")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_not_finite_positive_exit_2(self, tol, capsys):
        # a NaN or infinite tolerance would pass every numeric check
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tol", tol, str(FIXTURES / "3_4_2_q4.json")])
        assert exc.value.code == 2
        assert "finite number > 0" in capsys.readouterr().err

    def test_tolerance_small_positive_accepted(self, capsys):
        rc, out, _ = run(capsys, "verify", "--tol", "1e-6", str(FIXTURES / "3_4_2_q4.json"))
        assert rc == 0 and json.loads(out)["verdict"] == "pass"


class TestSearch:
    def test_finds_group_clique(self, graph_file, tmp_path, capsys):
        out_file = tmp_path / "found.json"
        rc, out, err = run(capsys, "search", "--graph-p", graph_file,
                           "--graph-r", graph_file, "--distance", "2",
                           "--target", "4", "--mode", "group",
                           "--out", str(out_file))
        assert rc == 0
        cert = json.loads(out)
        assert cert["claimed"]["K"] >= 4
        assert cert["verification"]["verdict"] == "pass"
        assert "found K" in err
        assert load_certificate(out_file).K == cert["claimed"]["K"]

    def test_set_mode(self, graph_file, capsys):
        rc, out, _ = run(capsys, "search", "--graph-p", graph_file,
                         "--graph-r", graph_file, "--distance", "2",
                         "--target", "4", "--mode", "set")
        assert rc == 0 and json.loads(out)["claimed"]["K"] >= 4

    def test_distance_1_full_space(self, graph_file, capsys):
        rc, out, _ = run(capsys, "search", "--graph-p", graph_file,
                         "--graph-r", graph_file, "--distance", "1",
                         "--target", "64")
        assert rc == 0 and json.loads(out)["claimed"]["K"] == 64

    def test_budget_0_exit_3(self, graph_file, capsys):
        rc, _, err = run(capsys, "search", "--graph-p", graph_file,
                         "--graph-r", graph_file, "--distance", "2",
                         "--target", "4", "--budget", "0")
        assert rc == 3 and "trivial" in err

    def test_single_layer(self, tmp_path, capsys):
        p = tmp_path / "L5m3.json"
        p.write_text(json.dumps(loop_graph(5, 3).to_json()))
        rc, out, _ = run(capsys, "search", "--graph-p", str(p),
                         "--distance", "2", "--target", "9")
        assert rc == 0 and json.loads(out)["claimed"]["K"] >= 9

    def test_bad_graph_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        rc, _, err = run(capsys, "search", "--graph-p", str(p))
        assert rc == 2 and "graph" in err

    @pytest.mark.parametrize("distance", ["5", "9"])
    def test_distance_above_n_plus_1_exit_2(self, graph_file, distance, capsys):
        # bad input, not a failed verification
        rc, out, err = run(capsys, "search", "--graph-p", graph_file,
                           "--distance", distance)
        assert rc == 2 and out == ""
        assert f"--distance {distance} exceeds n + 1 = 4" in err

    @pytest.mark.parametrize("layer", ["--graph-p", "--graph-r"])
    def test_empty_graph_exit_2(self, layer, graph_file, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(WeightedGraph(0, 2, ()).to_json()))
        files = {"--graph-p": graph_file, "--graph-r": graph_file, layer: str(empty)}
        rc, out, err = run(capsys, "search", *(a for kv in files.items() for a in kv),
                           "--distance", "1")
        assert rc == 2 and out == "" and "a layer needs at least one vertex" in err

    def test_graph_r_wider_than_graph_p_exit_2(self, graph_file, tmp_path, capsys):
        # the second layer must cover a prefix of the first layer's particles
        wide = tmp_path / "L5m2.json"
        wide.write_text(json.dumps(loop_graph(5, 2).to_json()))
        rc, out, err = run(capsys, "search", "--graph-p", graph_file,
                           "--graph-r", str(wide))
        assert rc == 2 and out == ""
        assert "--graph-r has 5 vertices, more than the 3 of --graph-p" in err

    def test_distance_n_plus_1_exit_3(self, graph_file, capsys):
        # d = n + 1 is a valid request that only the trivial clique meets
        rc, _, err = run(capsys, "search", "--graph-p", graph_file,
                         "--distance", "4")
        assert rc == 3 and "trivial" in err


class TestCompositions:
    def test_project(self, capsys):
        rc, out, _ = run(capsys, "project", str(FIXTURES / "5_9_2_q3.json"),
                         "--keep", '{"5": [0, 1]}')
        assert rc == 0
        cert = json.loads(out)
        assert cert["system"]["dims"] == [3, 3, 3, 3, 2]
        assert cert["claimed"] == {"K": 9, "d": 2}

    def test_project_bad_keep_exit_2(self, capsys):
        rc, _, err = run(capsys, "project", str(FIXTURES / "5_9_2_q3.json"),
                         "--keep", "not json")
        assert rc == 2 and "keep" in err

    def test_project_unknown_particle_exit_2(self, capsys):
        rc, _, err = run(capsys, "project", str(FIXTURES / "5_9_2_q3.json"),
                         "--keep", '{"9": [0, 1]}')
        assert rc == 2

    @pytest.mark.parametrize("levels", ["[0]", "[0, 0]"])
    def test_project_one_level_keep_exit_2(self, levels, capsys):
        rc, out, err = run(capsys, "project", str(FIXTURES / "5_9_2_q3.json"),
                           "--keep", f'{{"5": {levels}}}')
        assert rc == 2 and out == "" and "particle 5 keeps 1 level" in err

    @pytest.mark.parametrize("levels", ["[0.5, 1]", "[0, 1.0]", "[true, 1]"])
    def test_project_levels_not_integers_exit_2(self, levels, capsys):
        # a level indexes the particle's axis: 1.0 and true are not levels
        rc, out, err = run(capsys, "project", str(FIXTURES / "5_9_2_q3.json"),
                           "--keep", f'{{"5": {levels}}}')
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: bad --keep value: kept levels on particle 5 "
                              "must be integers")

    def test_projection_certificate_one_level_keep_exit_2(self, tmp_path, capsys):
        obj = json.loads((FIXTURES / "5_9_2_proj.json").read_text())
        del obj["content_hash"]  # so that only the projector is wrong
        obj["construction"]["ancilla"] = str(FIXTURES / "5_9_2_q3.json")
        obj["construction"]["projector"]["keep"]["5"] = [0]
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(obj))
        rc, _, err = run(capsys, "verify", str(target))
        assert rc == 2 and "particle 5 keeps 1 level" in err

    def test_product_of_different_lengths_exit_2(self, capsys):
        rc, out, err = run(capsys, "product", str(FIXTURES / "3_4_2_q4.json"),
                           str(FIXTURES / "5_9_2_q3.json"))
        assert rc == 2 and out == "" and "(n, d) = (3, 2) and (5, 2)" in err

    def test_product(self, capsys):
        rc, out, _ = run(capsys, "product", str(FIXTURES / "3_4_2_q4.json"),
                         str(FIXTURES / "3_8_2_q8.json"))
        assert rc == 0
        cert = json.loads(out)
        assert cert["system"]["dims"] == [32, 32, 32]
        assert cert["claimed"] == {"K": 32, "d": 2}

    def test_paste_reports_rows(self, capsys):
        rc, out, _ = run(capsys, "paste", str(FIXTURES / "3_4_2_q4.json"),
                         "--blocks", "1", "--block-dim", "2")
        assert rc == 0
        cert = json.loads(out)
        assert cert["system"]["dims"] == [4, 4, 4, 2, 2]
        assert cert["claimed"]["K"] == 16
        assert cert["verification"]["rows"] == [
            ["ZZXXZ", "III"], ["IIIII", "XZZ"],
            ["XZZZX", "ZXZ"], ["ZXZII", "ZZX"]]

    def test_paste_stabilizer_base_with_phases(self, tmp_path, capsys):
        # 6_16_3_stab stores a phase multiplier per row, folded into the
        # pasting's base rows; the emitted certificate re-verifies
        rc, out, _ = run(capsys, "paste", str(FIXTURES / "6_16_3_stab.json"),
                         "--blocks", "1", "--block-dim", "2",
                         "--out", str(tmp_path / "pasted.json"))
        assert rc == 0
        assert json.loads(out)["claimed"]["K"] == 64
        rc, out, _ = run(capsys, "verify", str(tmp_path / "pasted.json"))
        assert rc == 0 and json.loads(out)["verdict"] == "pass"

    def test_paste_dimension_too_long_to_print_exit_2(self, capsys):
        # 3 particles of 4 levels and 10000 blocks: D = 4^10003, of 6023
        # digits, more than str() converts
        rc, out, err = run(capsys, "paste", str(FIXTURES / "3_4_2_q4.json"),
                           "--blocks", "10000")
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: total dimension of 6023 digits exceeds cap ")

    def test_paste_block_too_large_exit_2(self, capsys):
        rc, _, err = run(capsys, "paste", str(FIXTURES / "3_4_2_q4.json"),
                         "--blocks", "1", "--block-dim", "8")
        assert rc == 2 and "absorbed" in err

    @pytest.mark.parametrize("block_dim, message", [
        ("3", "block dimension 3 is not a power of 2"),
        ("16", "8 block generators cannot be absorbed by 4 rows"),
    ])
    def test_paste_block_dim_mismatch_exit_2(self, block_dim, message, capsys):
        rc, out, err = run(capsys, "paste", str(FIXTURES / "3_4_2_q4.json"),
                           "--blocks", "1", "--block-dim", block_dim)
        assert rc == 2 and out == "" and message in err

    @pytest.mark.parametrize("graphs, vectors, block_dim, message", [
        ((loop_graph(3, 2), loop_graph(3, 3)),
         [[[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 2]], [[0, 0, 0], [0, 2, 1]]],
         "2", "stabilizer rows require a uniform layer modulus"),
        ((loop_graph(3, 4),), [[[0, 0, 0]], [[0, 1, 2]], [[0, 2, 1]]],
         "4", "stabilizer rows require a prime modulus, got 4"),
        ((loop_graph(3, 3),), [[[0, 0, 0]], [[0, 1, 2]]],
         "3", "clique is not a subgroup"),
    ], ids=["mixed_moduli", "composite_modulus", "not_a_subgroup"])
    def test_paste_clique_base_without_stabilizer_rows_exit_2(
            self, graphs, vectors, block_dim, message, tmp_path, capsys):
        # distance-2 cliques whose codes have no stabilizer rows to paste
        Certificate("base", MixedSystem.layered([(g.m, g.n) for g in graphs]),
                    len(vectors), 2,
                    {"type": "composite_clique", "graphs": [g.to_json() for g in graphs],
                     "vectors": vectors}).save(tmp_path / "base.json")
        rc, out, err = run(capsys, "paste", str(tmp_path / "base.json"),
                           "--block-dim", block_dim)
        assert rc == 2 and out == "" and message in err

    def test_paste_qutrit_clique_exit_2(self, tmp_path, capsys):
        # its rows carry digit 2, which the row text cannot spell: bad input
        g = tmp_path / "L3m3.json"
        g.write_text(json.dumps(loop_graph(3, 3).to_json()))
        rc, _, _ = run(capsys, "search", "--graph-p", str(g), "--distance", "2",
                       "--target", "3", "--mode", "set", "--out", str(tmp_path / "s.json"))
        assert rc == 0
        rc, out, err = run(capsys, "paste", str(tmp_path / "s.json"), "--block-dim", "3")
        assert rc == 2 and out == ""
        assert err.startswith("error: bad pasting: symbol notation only covers digits 0/1")

    @pytest.mark.parametrize("change, message", [
        ({"block_dim": 3}, "block dimension 3 is not a power of 2"),
        ({"blocks": 0}, "blocks must be >= 1"),
        ({"refs": ["base_d1.json"]}, "pasting requires a distance-2 base"),
    ])
    def test_pasting_certificate_input_mismatch_exit_2(self, change, message,
                                                       tmp_path, capsys):
        base = json.loads((FIXTURES / "3_4_2_q4.json").read_text())
        del base["content_hash"]
        base["claimed"]["d"] = 1
        (tmp_path / "base_d1.json").write_text(json.dumps(base))
        obj = json.loads((FIXTURES / "5_16_2_paste.json").read_text())
        del obj["content_hash"]
        obj["construction"]["refs"] = [str(FIXTURES / "3_4_2_q4.json")]
        obj["construction"].update(change)
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "verify", str(target))
        assert rc == 2 and out == "" and message in err

    def test_base_failing_its_distance_exit_1(self, tmp_path, capsys):
        # Z Z I and I Z Z: a single Z is a logical error, so the claimed
        # d = 2 fails; a failed check, through paste and through verify
        sys3 = MixedSystem.layered([(2, 3)])
        Certificate("rep3", sys3, 2, 2, {"type": "stabilizer",
                                         "rows": [["ZZI"], ["IZZ"]]}
                    ).save(tmp_path / "rep3.json")
        rc, out, err = run(capsys, "paste", str(tmp_path / "rep3.json"))
        assert rc == 1 and out == "" and "base code fails at distance 2" in err
        Certificate("rep3_pasted", MixedSystem(sys3.factors + ((2,), (2,))), 8, 2,
                    {"type": "pasting", "refs": ["rep3.json"], "blocks": 1,
                     "block_dim": 2}).save(tmp_path / "pasted.json")
        rc, out, _ = run(capsys, "verify", str(tmp_path / "pasted.json"))
        assert rc == 1 and "base code fails at distance 2" in json.loads(out)["error"]

    def test_projected_codeword_vanishing_exit_1(self, tmp_path, capsys):
        # Z I fixes qutrit 1 at level 0, which keeping levels {1, 2} removes
        Certificate("z_qutrits", MixedSystem.layered([(3, 2)]), 3, 1,
                    {"type": "stabilizer", "rows": [["ZI"]]}
                    ).save(tmp_path / "z_qutrits.json")
        rc, out, err = run(capsys, "project", str(tmp_path / "z_qutrits.json"),
                           "--keep", '{"1": [1, 2]}')
        assert rc == 1 and out == "" and "codeword 0 vanishes" in err


# projection certificates whose projector block, or its keep, is not an
# object, or whose kept levels are not integers
PROJECTOR_CASES = {"projector_not_object": "x", "keep_not_object": {"keep": [1]},
                   "keep_level_fraction": {"keep": {"5": [0.5, 1]}},
                   "keep_level_float": {"keep": {"5": [0, 1.0]}}}


class TestMalformedCertificates:
    @pytest.mark.parametrize("case", ["refs_not_strings", "claimed_K_not_int",
                                      "dims_not_list", "verification_not_object",
                                      "no_vectors", "projector_not_object",
                                      "keep_not_object", "keep_level_fraction",
                                      "keep_level_float"])
    def test_exit_2_without_traceback(self, case, tmp_path, capsys):
        target = tmp_path / "bad.json"
        if case == "refs_not_strings":
            # the content hash is recomputed, so only the refs are wrong
            Certificate("bad", MixedSystem(((4,),) * 3), 4, 2,
                        {"type": "product", "refs": [1, 2]}).save(target)
        elif case in PROJECTOR_CASES:
            obj = json.loads((FIXTURES / "5_9_2_proj.json").read_text())
            del obj["content_hash"]  # so that only the projector is wrong
            obj["construction"]["ancilla"] = str(FIXTURES / "5_9_2_q3.json")
            obj["construction"]["projector"] = PROJECTOR_CASES[case]
            target.write_text(json.dumps(obj))
        else:
            obj = json.loads((FIXTURES / "3_4_2_q4.json").read_text())
            if case == "claimed_K_not_int":
                obj["claimed"]["K"] = "x"
            else:
                del obj["content_hash"]  # so that only the named field is wrong
                if case == "dims_not_list":
                    obj["system"]["dims"] = 7
                elif case == "verification_not_object":
                    obj["verification"] = None
                else:
                    obj["construction"]["vectors"] = []
            target.write_text(json.dumps(obj))
        rc, _, err = run(capsys, "verify", str(target))
        assert rc == 2 and "Traceback" not in err and err.startswith("error:")
        if case in PROJECTOR_CASES:
            assert "bad projector block" in err

    def test_phase_beyond_int64_exit_2(self, tmp_path, capsys):
        # a phase denominator of 2^70 leaves the tableau's int64 range:
        # bad input, not a failed verification
        obj = json.loads((FIXTURES / "6_16_3_stab.json").read_text())
        del obj["content_hash"]
        obj["construction"]["phases"][0] = [1, 2 ** 70]
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "verify", str(target))
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: phase exponents exceed int64") and "2^63" in err

    def test_label_space_beyond_int64_exit_2(self, tmp_path, capsys):
        # loop_graph(64, 2) has 2^64 labels, past the int64 keys: bad input,
        # not a failed check, whichever check runs
        g = loop_graph(64, 2)
        Certificate("big", MixedSystem.layered([(2, 64)]), 1, 1,
                    {"type": "composite_clique", "graphs": [g.to_json()],
                     "vectors": [[[0] * 64]]}).save(tmp_path / "big.json")
        rc, out, err = run(capsys, "verify", "--symbolic", str(tmp_path / "big.json"))
        assert rc == 2 and out == ""
        assert err.startswith("error: label space of 18446744073709551616 labels "
                              "exceeds int64 keys")

    def test_claimed_d_above_n_plus_1_exit_2(self, tmp_path, capsys):
        # re-hashed, so only the claimed distance is wrong
        cert = load_certificate(FIXTURES / "3_4_2_q4.json")
        cert.d = 5
        cert.save(tmp_path / "bad.json")
        rc, out, err = run(capsys, "verify", str(tmp_path / "bad.json"))
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err == "error: claimed d = 5 exceeds n + 1 = 4\n"

    @pytest.mark.parametrize("argv", [
        ["verify", str(FIXTURES / "3_4_2_q4.json")],
        ["run-fixtures"],
    ])
    def test_bad_dim_cap_env_exit_2(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("MIXEDQEC_DIM_CAP", "abc")
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err == "error: MIXEDQEC_DIM_CAP must be an integer, got 'abc'\n"

    def test_explicit_dim_cap_overrides_bad_env(self, monkeypatch, capsys):
        monkeypatch.setenv("MIXEDQEC_DIM_CAP", "abc")
        rc, out, _ = run(capsys, "verify", str(FIXTURES / "3_4_2_q4.json"),
                         "--dim-cap", "100")
        assert rc == 0 and json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("fixture, path, value", [
        ("3_4_2_q4", ("claimed", "K"), 4.7),
        ("3_4_2_q4", ("claimed", "d"), True),
        ("3_4_2_q4", ("construction", "graphs", 0, "n"), 3.0),
        ("3_4_2_q4", ("construction", "graphs", 0, "mod"), 2.9),
        ("3_4_2_q4", ("construction", "graphs", 1, "adj", 0, 1), 1.0),
        ("5_16_2_paste", ("construction", "blocks"), True),
        ("5_16_2_paste", ("construction", "block_dim"), 2.0),
        ("6_16_3_stab", ("construction", "phases", 7, 0), 1.0),
        ("3_4_2_q4", ("system", "factors", 0, 0), 2.0),
        ("3_4_2_q4", ("construction", "generators", 0, 0, 0), 1.0),
        ("5_9_2_q3", ("construction", "vectors", 1, 0, 3), 2.0),
    ])
    def test_integer_field_not_an_integer_exit_2(self, fixture, path, value, tmp_path,
                                                 capsys):
        # read by int(), each value stood for the fixture's own integer and
        # the certificate verified; a construction field is re-hashed, and a
        # claim or a system factor, which is hashed as read, goes without a
        # stored hash
        obj = json.loads((FIXTURES / f"{fixture}.json").read_text())
        cons = obj["construction"]
        if "refs" in cons:
            cons["refs"] = [str(FIXTURES / ref) for ref in cons["refs"]]
        *parents, last = path
        node = obj
        for key in parents:
            node = node[key]
        node[last] = value
        if path[0] in ("claimed", "system"):
            del obj["content_hash"]
        else:
            obj["content_hash"] = content_hash(obj["system"], obj["claimed"], cons)
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "verify", str(target))
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and f"must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("key, value, want", [
        ("dims", [4.0, 4, 4], "[4, 4, 4]"), ("n", 3.5, "3"), ("n", 7, "3"),
    ])
    def test_system_n_or_dims_unlike_factors_exit_2(self, key, value, want, tmp_path,
                                                   capsys):
        # the system block's n was never read, and its dims were compared
        # as a tuple, where 4.0 == 4: each of these verified with exit 0
        obj = json.loads((FIXTURES / "3_4_2_q4.json").read_text())
        del obj["content_hash"]
        obj["system"][key] = value
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "verify", str(target))
        assert rc == 2 and out == ""
        assert err == f"error: system {key} must be {want}, got {value!r}\n"

    @pytest.mark.parametrize("key", ["n", "dims"])
    def test_system_block_without_n_or_dims_verifies(self, key, tmp_path, capsys):
        obj = json.loads((FIXTURES / "3_4_2_q4.json").read_text())
        del obj["content_hash"], obj["system"][key]
        target = tmp_path / "plain.json"
        target.write_text(json.dumps(obj))
        rc, out, _ = run(capsys, "verify", str(target))
        assert rc == 0 and json.loads(out)["verdict"] == "pass"


class TestStabilizerPhases:
    """The rows of 3_4_2_q4 (D = 64) as a stabilizer-form certificate,
    with one verified phase multiplier per row."""

    def save(self, tmp_path, extra):
        code = build_code(load_certificate(FIXTURES / "3_4_2_q4.json"))
        rows = clique_stabilizer_rows(code.clique)
        phases = verify_stabilizer(rows, code).chosen_phases
        cons = {"type": "stabilizer", "rows": [list(r.text) for r in rows],
                "phases": [[p.k, p.L] for p in phases]}
        cons["phases"] = cons["phases"][:len(rows) + extra] + [[0, 1]] * extra
        target = tmp_path / "stab.json"
        Certificate("stab", code.system, code.K, code.d, cons).save(target)
        return str(target)

    def test_matching_phases_pass(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "verify", self.save(tmp_path, 0))
        assert rc == 0 and json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_phase_count_differs_from_rows_exit_2(self, extra, tmp_path, capsys):
        rc, out, err = run(capsys, "verify", self.save(tmp_path, extra))
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err == f"error: stabilizer construction has {4 + extra} phases for 4 rows\n"


FUZZ_FIXTURES = ["3_4_2_q4.json", "3_8_2_q8.json", "5_9_2_q3.json"]

json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.sampled_from([2 ** 63, 0.5, -1.0]),
    st.text(max_size=2), st.lists(st.integers(-1, 4), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


def mutate(obj, data):
    """Replace or delete one value of a JSON object, found by a random
    walk from the top that stops at each level with probability 1/2."""
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node:
        parent, key = node, data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
        if data.draw(st.booleans()):
            break
    if parent is None:
        return
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(json_values)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_FIXTURES), st.data())
def test_mutated_fixture_exits_0_1_or_2(name, data):
    """Values replaced and keys deleted anywhere in a fixture (content
    hash removed): verify ends with an exit code, never a traceback."""
    obj = json.loads((FIXTURES / name).read_text())
    del obj["content_hash"]
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(obj, data)
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / name
        target.write_text(json.dumps(obj))
        assert main(["verify", str(target)]) in (0, 1, 2)


class TestEmittedReferences:
    @pytest.mark.parametrize("argv", [
        ["product", "certs/3_4_2_q4.json", "certs/3_4_2_q4.json"],
        ["paste", "certs/3_4_2_q4.json"],
        ["project", "certs/5_9_2_q3.json", "--keep", '{"5": [0, 1]}'],
    ])
    def test_out_in_other_dir_reverifies_from_any_cwd(self, argv, tmp_path,
                                                       monkeypatch, capsys):
        (tmp_path / "certs").mkdir()
        (tmp_path / "out").mkdir()
        (tmp_path / "elsewhere").mkdir()
        for name in ("3_4_2_q4.json", "5_9_2_q3.json"):
            (tmp_path / "certs" / name).write_text((FIXTURES / name).read_text())
        monkeypatch.chdir(tmp_path)
        rc, out, _ = run(capsys, *argv, "--out", "out/new.json")
        assert rc == 0
        cons = json.loads(out)["construction"]
        refs = cons.get("refs") or [cons["ancilla"]]
        assert all(ref.startswith("../certs/") for ref in refs)
        monkeypatch.chdir(tmp_path / "elsewhere")
        rc, out, _ = run(capsys, "verify", "../out/new.json")
        assert rc == 0 and json.loads(out)["verdict"] == "pass"
        rc, _, _ = run(capsys, "verify", str(tmp_path / "out" / "new.json"))
        assert rc == 0

    @pytest.mark.parametrize("argv", [
        ["paste", str(FIXTURES / "3_4_2_q4.json")],
        ["search", "--graph-p", "unused.json"],
        ["project", str(FIXTURES / "5_9_2_q3.json"), "--keep", '{"5": [0, 1]}'],
        ["product", str(FIXTURES / "3_4_2_q4.json"), str(FIXTURES / "3_8_2_q8.json")],
    ])
    def test_missing_out_dir_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("built a code for a missing --out directory")

        # the directory is checked before any code is built
        monkeypatch.setattr("mixedqec.certificates._build", unreachable)
        rc, _, err = run(capsys, *argv, "--out", str(tmp_path / "nowhere" / "x.json"))
        assert rc == 2 and "output directory not found" in err

    def test_out_in_cwd_with_plain_names_is_unchanged(self, tmp_path,
                                                      monkeypatch, capsys):
        (tmp_path / "3_4_2_q4.json").write_text(
            (FIXTURES / "3_4_2_q4.json").read_text())
        monkeypatch.chdir(tmp_path)
        rc, out, _ = run(capsys, "product", "3_4_2_q4.json", "3_4_2_q4.json",
                         "--out", "x.json")
        assert rc == 0
        written = (tmp_path / "x.json").read_text()
        assert written == out
        cert = json.loads(written)
        assert cert["construction"]["refs"] == ["3_4_2_q4.json", "3_4_2_q4.json"]
        # the hash of the certificate this command emitted before refs
        # were made relative to the output directory
        assert cert["content_hash"] == (
            "sha256:8beab3464b1b716dcb3d8b131c4494917087d37207aa50ae4dfc68ef3ed53430")


def count_calls(monkeypatch, fn) -> list:
    """Replace every binding of ``fn`` in the mixedqec modules by a
    wrapper that records each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "mixedqec" or name.startswith("mixedqec."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def run_in(cwd: Path, *argv) -> tuple[int, str]:
    """main(argv) from the directory cwd; the exit code and stdout."""
    back = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(argv))
    finally:
        os.chdir(back)
    return rc, out.getvalue()


@st.composite
def creating_commands(draw, kind):
    """A small search, paste, product or project command line, reading
    its inputs from certs/."""
    if kind == "search":
        m, n = draw(st.sampled_from([2, 3])), draw(st.integers(3, 4))
        weights = iter(draw(st.lists(st.integers(0, m - 1), min_size=n * n, max_size=n * n)))
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                adj[i][j] = adj[j][i] = next(weights)
        graph = json.dumps(WeightedGraph(n, m, tuple(map(tuple, adj))).to_json())
        return {"certs/g.json": graph}, [
            "search", "--graph-p", "certs/g.json", "--distance", "2",
            "--target", str(draw(st.integers(2, 8))), "--budget", "200",
            "--mode", draw(st.sampled_from(["group", "set"]))]
    if kind == "paste":
        base, blocks, block_dim = draw(st.sampled_from([
            ("3_4_2_q4", 1, 2), ("3_4_2_q4", 2, 2), ("3_4_2_q4", 1, 4),
            ("3_8_2_q8", 1, 2)]))
        return {}, ["paste", f"certs/{base}.json", "--blocks", str(blocks),
                    "--block-dim", str(block_dim)]
    if kind == "product":
        return {}, ["product", "certs/3_4_2_q4.json", "certs/3_4_2_q4.json"]
    keep = draw(st.dictionaries(st.sampled_from("12345"),
                                st.sampled_from([[0, 1], [0, 2], [1, 2], [0, 1, 2]]),
                                min_size=1, max_size=2))
    return {}, ["project", "certs/5_9_2_q3.json", "--keep", json.dumps(keep)]


@pytest.mark.parametrize("kind", ["search", "paste", "product", "project"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_emitted_certificates_reverify_from_another_directory(kind, data):
    """Whatever a creating command emits with --out verifies again, run
    from another directory, with the verdict and the verification block
    (less a pasting's rows) it was emitted with."""
    files, argv = data.draw(creating_commands(kind))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for sub in ("certs", "out", "elsewhere"):
            (root / sub).mkdir()
        for name in ("3_4_2_q4.json", "3_8_2_q8.json", "5_9_2_q3.json"):
            (root / "certs" / name).write_text((FIXTURES / name).read_text())
        for name, text in files.items():
            (root / name).write_text(text)
        rc, _ = run_in(root, *argv, "--out", "out/new.json")
        emitted = root / "out" / "new.json"
        assert rc in (0, 1, 3)
        if rc != 0:  # nothing verified, nothing emitted
            assert not emitted.exists()
            return
        block = json.loads(emitted.read_text())["verification"]
        assert block["verdict"] == "pass"
        block.pop("rows", None)
        rc, out = run_in(root / "elsewhere", "verify", "../out/new.json", "--update")
        assert rc == 0 and json.loads(out)["verdict"] == "pass"
        assert json.loads(emitted.read_text())["verification"] == block


class TestBuiltOnce:
    @pytest.mark.parametrize("argv, constructor", [
        (["paste", str(FIXTURES / "3_4_2_q4.json"), "--blocks", "3"], paste_distance2),
        (["project", str(FIXTURES / "5_9_2_q3.json"), "--keep", '{"5": [0, 1]}'],
         project_code),
        (["product", str(FIXTURES / "3_4_2_q4.json"), str(FIXTURES / "3_8_2_q8.json")],
         product_code),
    ])
    def test_constructor_runs_once(self, argv, constructor, monkeypatch, capsys):
        calls = count_calls(monkeypatch, constructor)
        rc, _, _ = run(capsys, *argv)
        assert rc == 0 and len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ["search", "--graph-p", "L3m2.json", "--graph-r", "L3m2.json", "--target", "4"],
        ["project", "5_9_2_q3.json", "--keep", '{"5": [1, 0]}'],
        ["product", "3_4_2_q4.json", "3_8_2_q8.json"],
        ["paste", "3_4_2_q4.json", "--blocks", "2"],
    ])
    def test_emitted_block_is_the_one_verify_writes(self, argv, graph_file, tmp_path,
                                                    monkeypatch, capsys):
        for name in ("3_4_2_q4.json", "3_8_2_q8.json", "5_9_2_q3.json"):
            (tmp_path / name).write_text((FIXTURES / name).read_text())
        monkeypatch.chdir(tmp_path)
        rc, _, _ = run(capsys, *argv, "--out", "new.json")
        assert rc == 0
        emitted = json.loads((tmp_path / "new.json").read_text())["verification"]
        assert (emitted.pop("rows", None) is not None) == (argv[0] == "paste")
        rc, _, _ = run(capsys, "verify", "new.json", "--update")
        assert rc == 0
        assert json.loads((tmp_path / "new.json").read_text())["verification"] == emitted


class TestRunFixtures:
    def test_packaged_set_passes(self, capsys):
        rc, out, _ = run(capsys, "run-fixtures")
        assert rc == 0
        assert "15/15 fixtures behaved as expected" in out
        assert out.count("PASS") == 15 and "FAIL" not in out

    def test_broken_positive_fails_suite(self, tmp_path, capsys):
        obj = json.loads((FIXTURES / "3_4_2_q4.json").read_text())
        obj["claimed"]["K"] = 8
        obj.pop("content_hash")
        cert = Certificate.from_json(obj)
        cert.save(tmp_path / "broken.json")
        rc, out, _ = run(capsys, "run-fixtures", "--dir", str(tmp_path))
        assert rc == 1 and "FAIL broken.json" in out

    def test_missing_dir_exit_2(self, tmp_path, capsys):
        rc, _, err = run(capsys, "run-fixtures", "--dir",
                         str(tmp_path / "nowhere"))
        assert rc == 2 and "fixture" in err

    def test_dim_cap_overrides_the_environment_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("MIXEDQEC_DIM_CAP", "100")
        rc, out, _ = run(capsys, "run-fixtures", "--dim-cap", "65536")
        assert rc == 0 and "SKIP" not in out
        assert out.splitlines()[-1] == "15/15 fixtures behaved as expected"

    def test_dim_cap_skips_fixtures_and_carries_on(self, capsys):
        rc, out, err = run(capsys, "run-fixtures", "--dim-cap", "100")
        lines = out.splitlines()
        fixtures = sorted(FIXTURES.glob("*.json")) + sorted(FIXTURES.glob("negatives/*.json"))
        assert rc == 0 and "Traceback" not in out + err
        assert len(lines) == len(fixtures) + 1
        skips = [line for line in lines if line.startswith("SKIP ")]
        assert "SKIP 6_16_3_stab.json: dimension 4096 exceeds cap 100" in skips
        assert all(line.startswith(("PASS ", "SKIP ")) for line in lines[:-1])
        checked = len(fixtures) - len(skips)
        assert lines[-1] == (f"{checked}/{checked} fixtures behaved as expected, "
                             f"{len(skips)} skipped over the dimension cap")


class TestHarness:
    def test_threads_flag_validated(self):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "bounds", "--dims", "4", "--distance", "1"])
        assert exc.value.code == 2

    def test_output_independent_of_threads(self, capsys):
        _, out1, _ = run(capsys, "--threads", "1", "bounds",
                         "--dims", "4,4,4", "--distance", "2")
        _, out4, _ = run(capsys, "--threads", "4", "bounds",
                         "--dims", "4,4,4", "--distance", "2")
        assert out1 == out4

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_fixture_hashes_are_cold_stable(self):
        # shipped certificates must rehash to their stored values
        for path in sorted(FIXTURES.glob("*.json")):
            cert = load_certificate(path)
            assert cert.hash == json.loads(path.read_text())["content_hash"]
