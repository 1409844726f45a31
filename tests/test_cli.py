import json
import re
import subprocess
import sys
import time

import pytest

from treelevel.cli import MAX_ORDER, MAX_Q_CAP, MAX_Q_DENOMINATOR, main
from treelevel.cones import MAX_CONE_EDGES
from treelevel.graphs import MarkedGraph
from treelevel.selftest import singular_cone_tree


def star_morphism_spec(pair):
    """A one-dimensional check-star-morphism spec checking ``pair``."""
    return json.dumps({"basis_v": ["e"], "basis_w": ["e"],
                       "mu_v": [{"inputs": [0, 0], "output": 0}],
                       "mu_w": [{"inputs": [0, 0], "output": 0}],
                       "phi": [{"inputs": [0], "output": 0}],
                       "pairs": [pair]})


def qde_spec(**extra):
    """A solve-qde spec for the projective line, with ``extra`` keys."""
    return json.dumps({"basis": ["1", "xi"], "q_cap": 2,
                       "mu": [{"inputs": [0, 0], "output": 0},
                              {"inputs": [0, 1], "output": 1},
                              {"inputs": [1, 1], "output": 0, "q": "1"}],
                       **extra})


def assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


class TestKirwanCommand:
    def test_teardrop_prints_presentation(self, capsys):
        assert main(["kirwan", "--weights", "1,2", "--theta", "1",
                     "--degree-bound", "1"]) == 0
        out = capsys.readouterr().out
        assert "4*xi^3 = q" in out
        assert "1_Z2" in out

    def test_json_round_trip(self, capsys):
        assert main(["kirwan", "--weights", "1,2", "--degree-bound", "2",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["presentation"] == "4*xi^3 = q"
        assert json.loads(json.dumps(data)) == data
        degrees = [r["degree"] for r in data["relations"]]
        assert degrees == ["1/2", "1", "3/2", "2"]

    def test_degree_guard_exits_two_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["kirwan", "--weights", "1,2",
                     "--degree-bound", "1000000"]) == 2
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestStrataCommand:
    def test_mult2_lists_three(self, capsys):
        assert main(["strata", "--space", "mult", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 strata" in out and "2 boundary divisors" in out

    def test_json_graphs_reparse(self, capsys):
        assert main(["strata", "--space", "mult", "--n", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["strata"]) == 18
        for rec in data["strata"]:
            g = MarkedGraph.from_json_obj(rec)
            assert g.kind.value == "colored_tree"
            assert rec["dimension"] + rec["codimension"] == 2

    def test_deterministic_output(self, capsys):
        main(["strata", "--space", "scaled", "--n", "2", "--json"])
        first = capsys.readouterr().out
        main(["strata", "--space", "scaled", "--n", "2", "--json"])
        assert capsys.readouterr().out == first

    def test_dot_export(self, tmp_path, capsys):
        target = tmp_path / "out.dot"
        assert main(["strata", "--space", "m0", "--n", "4",
                     "--dot", str(target)]) == 0
        assert target.read_text().count("graph marked_graph") == 4

    def test_unwritable_dot_fails_before_any_output(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.dot"
        assert main(["strata", "--space", "mult", "--n", "4",
                     "--dot", str(target)]) == 2
        assert_one_line_error(capsys)

    def test_existing_dot_is_kept_when_the_enumeration_fails(
            self, tmp_path, monkeypatch):
        from treelevel import strata

        def fail(space):
            raise MemoryError

        monkeypatch.setattr(strata, "_keyed_nodes", fail)
        target = tmp_path / "out.dot"
        target.write_text("kept\n")
        with pytest.raises(MemoryError):
            main(["strata", "--space", "mult", "--n", "3",
                  "--dot", str(target)])
        assert target.read_text() == "kept\n"

    def test_dot_is_written_in_the_listing_pass(self, tmp_path, capsys,
                                                monkeypatch):
        from treelevel import strata

        spaces = []
        real = strata._raw_strata
        monkeypatch.setattr(strata, "_raw_strata",
                            lambda space: spaces.append(space) or real(space))
        target = tmp_path / "out.dot"
        assert main(["strata", "--space", "mult", "--n", "3", "--json",
                     "--dot", str(target)]) == 0
        assert spaces == [strata.MULT(3)]
        assert target.read_text().count("graph marked_graph") == 18
        assert len(json.loads(capsys.readouterr().out)["strata"]) == 18


class TestConeCommand:
    def test_singular_example(self, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(singular_cone_tree().to_json())
        assert main(["cone", "--graph", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ambient_rank"] == 3
        assert data["ray_count"] == 4
        assert data["simplicial"] is False

    def test_missing_file(self, capsys):
        assert main(["cone", "--graph", "/nonexistent.json"]) == 2

    def test_wide_tree_reads_rays_at_once(self, tmp_path, capsys):
        # an infinite vertex holding leg 0 over nine infinite vertices with
        # two colored leaves each: 27 edges with 18 distinct images in
        # rank 10, each a ray, one per allowed collapse: 9 infinite
        # edges and 9 relation collapses.
        colors = {0: "infinity"}
        edges, legs = [], {0: 0}
        for mid in range(1, 28, 3):
            colors.update({mid: "infinity", mid + 1: "colored",
                           mid + 2: "colored"})
            edges += [(0, mid), (mid, mid + 1), (mid, mid + 2)]
            legs.update({len(legs): mid + 1, len(legs) + 1: mid + 2})
        path = tmp_path / "wide.json"
        path.write_text(MarkedGraph("colored_tree", colors, edges,
                                    legs).to_json())
        start = time.perf_counter()
        assert main(["cone", "--graph", str(path)]) == 0
        assert time.perf_counter() - start < 1
        out = capsys.readouterr().out
        assert out.startswith("ambient rank 10, 18 extremal rays\n")

    def test_oversized_graph_exits_two_at_once(self, tmp_path, capsys):
        # an infinite vertex holding leg 0 over 640 colored leaves
        colors = {0: "infinity", **dict.fromkeys(range(1, 641), "colored")}
        path = tmp_path / "star.json"
        path.write_text(MarkedGraph(
            "colored_tree", colors, [(0, v) for v in range(1, 641)],
            {l: l for l in range(641)}).to_json())
        start = time.perf_counter()
        assert main(["cone", "--graph", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert (f"640 edge columns, more than {MAX_CONE_EDGES}"
                in assert_one_line_error(capsys))


    @pytest.mark.parametrize("key", ["02", " 2", "+2", "1_0"])
    def test_leg_key_not_plain_decimal_exits_two(self, key, tmp_path,
                                                 capsys):
        # infinite 0 over colored 1 and 2: int() would read the extra
        # key as leg 2, silently moving it onto vertex 1, or as leg 10
        obj = {"kind": "colored_tree",
               "vertices": [{"id": 0, "color": "infinity"},
                            {"id": 1, "color": "colored"},
                            {"id": 2, "color": "colored"}],
               "edges": [[0, 1], [0, 2]],
               "legs": {"0": 0, "1": 1, "2": 2, key: 1}}
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(obj))
        assert main(["cone", "--graph", str(path)]) == 2
        assert f"leg key {key!r}" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("field, value, obj", [
        # index() would read true as vertex 1, and the tree as valid
        ("vertex id", "True", {"kind": "colored_tree",
                       "vertices": [{"id": True, "color": "colored"}],
                       "legs": {"0": 1, "1": 1}}),
        ("leg vertex", "True", {"kind": "colored_tree",
                        "vertices": [{"id": 1, "color": "colored"}],
                        "legs": {"0": True, "1": 1}}),
        ("edge end", "True", {"kind": "colored_tree",
                      "vertices": [{"id": 0, "color": "infinity"},
                                   {"id": 1, "color": "colored"},
                                   {"id": 2, "color": "colored"}],
                      "edges": [[0, True], [0, 2]],
                      "legs": {"0": 0, "1": 1, "2": 2}}),
        ("root", "False", {"kind": "rooted_colored_tree",
                  "vertices": [{"id": 0, "color": "colored"},
                               {"id": 1, "color": "zero"}],
                  "edges": [[0, 1]], "legs": {"1": 1, "2": 1},
                  "root": False}),
        ("genus", "False", {"kind": "modular",
                   "vertices": [{"id": 0, "genus": False}],
                   "legs": {"1": 0, "2": 0, "3": 0}}),
    ], ids=["vertex-id", "leg-vertex", "edge-end", "root", "genus"])
    def test_boolean_for_an_integer_exits_two(self, field, value, obj,
                                              tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(obj))
        assert main(["cone", "--graph", str(path)]) == 2
        assert (f"{field} {value} is not an integer"
                in assert_one_line_error(capsys))

    def test_plain_leg_keys_still_parse(self, tmp_path, capsys):
        obj = {"kind": "colored_tree",
               "vertices": [{"id": 0, "color": "infinity"},
                            {"id": 1, "color": "colored"},
                            {"id": 2, "color": "colored"}],
               "edges": [[0, 1], [0, 2]],
               "legs": {"0": 0, "1": 1, "2": 2, "10": 1}}
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(obj))
        assert main(["cone", "--graph", str(path)]) == 0
        assert capsys.readouterr().out.startswith(
            "ambient rank 1, 1 extremal rays\n")


class TestDivisorsCommand:
    def test_verify_pullback_passes(self, capsys):
        assert main(["divisors", "--space", "mult", "--n", "3",
                     "--verify", "pullback"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_rho(self, capsys):
        assert main(["divisors", "--space", "scaled", "--n", "2",
                     "--verify", "rho"]) == 0

    def test_verify_m04(self, capsys):
        assert main(["divisors", "--space", "m0", "--n", "5",
                     "--verify", "m04", "--split", "13|24"]) == 0

    @pytest.mark.parametrize("space, n, check", [
        ("fm", "3", "pullback"),
        ("mult", "5", "m04"),
        ("m0", "5", "rho"),
    ], ids=["pullback", "m04", "rho"])
    def test_verify_on_wrong_space_exits_two(self, space, n, check, capsys):
        assert main(["divisors", "--space", space, "--n", n,
                     "--verify", check]) == 2
        assert "needs --space" in assert_one_line_error(capsys)

    def test_plain_listing(self, capsys):
        assert main(["divisors", "--space", "mult", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "D_{1,2}" in out and "D_[{1}|{2}]" in out


class TestCohftCommand:
    def test_check_star_morphism(self, tmp_path, capsys):
        spec = {
            "basis_v": ["e"], "basis_w": ["e"],
            "mu_v": [{"inputs": [0, 0], "output": 0, "coeff": "1"}],
            "mu_w": [{"inputs": [0, 0], "output": 0, "coeff": "1"}],
            "phi": [{"inputs": [0], "output": 0, "coeff": "1"}],
            "phi0": ["1/2"],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["cohft", "check-star-morphism", "--spec", str(path),
                     "--order", "4"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_morphism_exits_one(self, tmp_path, capsys):
        spec = {
            "basis_v": ["e"], "basis_w": ["e"],
            "mu_v": [{"inputs": [0, 0], "output": 0, "coeff": "1"}],
            "mu_w": [{"inputs": [0, 0], "output": 0, "coeff": "1"}],
            "phi": [{"inputs": [0], "output": 0, "coeff": "2"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert main(["cohft", "check-star-morphism", "--spec", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_solve_qde(self, tmp_path, capsys):
        spec = {
            "basis": ["1", "xi"], "tvars": ["t0", "t1"], "q_cap": 2, "xi": 1,
            "mu": [
                {"inputs": [0, 0], "output": 0, "coeff": "1"},
                {"inputs": [0, 1], "output": 1, "coeff": "1"},
                {"inputs": [1, 1], "output": 0, "coeff": "1", "q": "1"},
            ],
        }
        path = tmp_path / "qde.json"
        path.write_text(json.dumps(spec))
        assert main(["cohft", "solve-qde", "--spec", str(path),
                     "--q-cap", "2"]) == 0
        assert "residual zero: True" in capsys.readouterr().out


class TestSelftestCommand:
    def test_fast_subset(self, capsys):
        assert main(["selftest", "--criteria", "1,2,5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "3/3 criteria passed" in out
        verdicts = [line for line in out.splitlines()
                    if line.startswith(("PASS", "FAIL"))]
        assert len(verdicts) == 3
        assert all(re.search(r" \[\d+ ms\]$", line) for line in verdicts)
        # the criterion's own detail carries no second time
        first = next(line for line in verdicts if "criterion 1 " in line)
        assert len(re.findall(r"\d(?:\.\d+)? ?m?s\b", first)) == 1


class TestUsage:
    def test_unknown_space_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["strata", "--space", "banana", "--n", "2"])
        assert exc.value.code == 2

    def test_guard_maps_to_exit_two(self, capsys):
        assert main(["strata", "--space", "mult", "--n", "9"]) == 2

    @pytest.mark.parametrize("argv", [
        ["kirwan", "--weights", "1,2", "--degree-bound", "abc"],
        ["kirwan", "--weights", "1,x"],
        ["kirwan", "--weights", "1,2", "--theta", "1/0"],
        ["kirwan", "--weights", ",".join(["1"] * 16)],
    ], ids=["degree-bound", "weights", "theta", "weight-count"])
    def test_bad_kirwan_arguments_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["cone", "--graph"],
        ["strata", "--space", "mult", "--n", "2", "--dot"],
        ["cohft", "solve-qde", "--spec"],
    ], ids=["cone-graph", "strata-dot", "cohft-spec"])
    def test_directory_path_exits_two(self, argv, tmp_path, capsys):
        assert main(argv + [str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("criteria", ["abc", "99", ""],
                             ids=["abc", "99", "empty"])
    def test_bad_selftest_criteria_exit_two(self, criteria, capsys):
        assert main(["selftest", "--criteria", criteria]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("text, fragment", [
        ("{bad", "JSON"),
        (json.dumps({"kind": "colored_tree", "vertices": [{"id": 0}],
                     "legs": {"0": 0}}), "JSON"),
        (json.dumps({"kind": "weird", "vertices": []}), "JSON"),
        (json.dumps({"kind": "colored_tree",
                     "vertices": [{"id": 0, "color": "red"}],
                     "legs": {"0": 0}}), "JSON"),
        (json.dumps({"kind": "colored_tree",
                     "vertices": [{"id": 0.7, "color": "colored"}],
                     "legs": {"0": 0, "1": 0}}), "JSON"),
        (json.dumps({"kind": "colored_tree",
                     "vertices": [{"id": 0, "color": "colored"}],
                     "legs": {"0": 0, "1": 0.5}}), "JSON"),
        (json.dumps({"kind": "modular", "vertices": [{"id": 0, "genus": 0.5}],
                     "legs": {"1": 0, "2": 0, "3": 0}}), "JSON"),
        (json.dumps({"kind": "colored_tree",
                     "vertices": [{"id": 0, "color": "zero"},
                                  {"id": 0, "color": "colored"}],
                     "legs": {"0": 0, "1": 0}}), "duplicate vertex ids"),
    ], ids=["not-json", "missing-color", "unknown-kind", "unknown-color",
            "float-id", "float-leg", "fractional-genus", "repeated-id"])
    def test_bad_graph_file_exits_two(self, text, fragment, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(text)
        assert main(["cone", "--graph", str(path)]) == 2
        # refused as it is read, not later by the cone
        assert fragment in assert_one_line_error(capsys)

    def test_genus_one_graph_exits_two(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "kind": "modular", "vertices": [{"id": 0, "genus": 1}],
            "legs": {"1": 0}}))
        assert main(["cone", "--graph", str(path)]) == 2
        assert "genus 1" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("command, text", [
        ("check-associativity", "{bad"),
        ("check-associativity", json.dumps({"mu": []})),
        ("check-associativity", json.dumps([1, 2])),
        ("check-associativity", json.dumps(
            {"basis": ["a", "b"],
             "mu": [{"inputs": [0, 0], "output": 0, "coeff": "abc"}]})),
        ("check-associativity", json.dumps(
            {"basis": ["a", "b"], "mu": [{"inputs": [0, 0], "output": 5}]})),
        ("check-associativity", json.dumps(
            {"basis": ["a", "b"], "mu": [{"inputs": [0, -1], "output": 0}]})),
        ("check-associativity", json.dumps(
            {"basis": ["a", "b"], "mu": [{"inputs": [0, 7], "output": 0}]})),
        ("check-associativity", json.dumps(
            {"basis": ["a"], "q_denominator": 0, "mu": []})),
        ("solve-qde", json.dumps(
            {"basis": ["1", "xi"], "xi": 4,
             "mu": [{"inputs": [0, 0], "output": 0}]})),
        ("check-star-morphism", star_morphism_spec([0, 3])),
        ("check-star-morphism", star_morphism_spec(["a", 0])),
        ("check-star-morphism", star_morphism_spec([0.5, 0])),
        ("check-star-morphism", star_morphism_spec([[0], 0])),
        ("solve-qde", qde_spec(order=2.5)),
        ("solve-qde", qde_spec(q_denominator=2.7)),
    ], ids=["not-json", "missing-basis", "not-an-object", "bad-coeff",
            "output-range", "negative-input", "input-range",
            "q-denominator", "xi-range", "pair-range", "pair-str",
            "pair-float", "pair-list", "order-float", "q-denominator-float"])
    def test_bad_cohft_spec_exits_two(self, command, text, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["cohft", command, "--spec", str(path)]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("command, text, value", [
        ("solve-qde", qde_spec(tvars="t0"), "'t0'"),
        ("check-associativity", qde_spec(tvars=["t0", "t0"]), "'t0'"),
    ], ids=["string", "repeated"])
    def test_bad_tvars_exits_two(self, command, text, value, tmp_path,
                                 capsys):
        # a string used to become one variable per character
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["cohft", command, "--spec", str(path)]) == 2
        assert value in assert_one_line_error(capsys)

    @pytest.mark.parametrize("option", ["--order", "--q-cap"])
    def test_negative_cohft_size_exits_two(self, option, tmp_path, capsys):
        path = tmp_path / "qde.json"
        path.write_text(json.dumps(
            {"basis": ["1", "xi"], "q_cap": 2,
             "mu": [{"inputs": [0, 0], "output": 0},
                    {"inputs": [0, 1], "output": 1},
                    {"inputs": [1, 1], "output": 0, "q": "1"}]}))
        assert main(["cohft", "solve-qde", "--spec", str(path),
                     option, "-1"]) == 2
        assert "must be nonnegative" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("option, bound", [("--order", MAX_ORDER),
                                               ("--q-cap", MAX_Q_CAP)])
    def test_oversized_cohft_size_exits_two(self, option, bound, tmp_path,
                                            capsys):
        path = tmp_path / "qde.json"
        path.write_text(json.dumps(
            {"basis": ["1", "xi"], "q_cap": 2,
             "mu": [{"inputs": [0, 0], "output": 0},
                    {"inputs": [0, 1], "output": 1},
                    {"inputs": [1, 1], "output": 0, "q": "1"}]}))
        argv = ["cohft", "solve-qde", "--spec", str(path), option]
        assert main(argv + [str(bound + 1)]) == 2
        assert f"must be at most {bound}" in assert_one_line_error(capsys)
        assert main(argv + [str(bound)]) == 0
        assert "residual zero: True" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value, integer", [
        ("order", 2.5, 2), ("q_denominator", 2.7, 2)])
    def test_non_integer_ring_size_exits_two(self, key, value, integer,
                                             tmp_path, capsys):
        # refused and named, where it used to run truncated with exit 0
        path = tmp_path / "qde.json"
        argv = ["cohft", "solve-qde", "--spec", str(path)]
        path.write_text(qde_spec(**{key: value}))
        assert main(argv) == 2
        assert f"{value} is not an integer" in assert_one_line_error(capsys)
        path.write_text(qde_spec(**{key: integer}))
        assert main(argv) == 0
        assert "residual zero: True" in capsys.readouterr().out

    @pytest.mark.parametrize("command, text, value", [
        ("solve-qde", qde_spec(xi=True), "True"),
        ("solve-qde", qde_spec(mu=[{"inputs": [False, True], "output": 1}]),
         "False"),
        ("check-associativity",
         qde_spec(mu=[{"inputs": [0, 1], "output": True}]), "True"),
        ("check-star-morphism", star_morphism_spec([True, 0]), "True"),
    ], ids=["xi", "inputs", "output", "pairs"])
    def test_boolean_for_an_index_exits_two(self, command, text, value,
                                            tmp_path, capsys):
        # a JSON true or false used to be read as the index 1 or 0
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["cohft", command, "--spec", str(path)]) == 2
        assert (f"index {value} is not an integer"
                in assert_one_line_error(capsys))

    @pytest.mark.parametrize("key", ["order", "q_denominator"])
    def test_string_ring_size_exits_two(self, key, tmp_path, capsys):
        # named, where comparing the string with 0 ended in "'<' not
        # supported between instances of 'str' and 'int'"
        path = tmp_path / "qde.json"
        path.write_text(qde_spec(**{key: "2"}))
        assert main(["cohft", "solve-qde", "--spec", str(path)]) == 2
        assert f"{key} '2' is not an integer" in assert_one_line_error(capsys)

    def test_q_denominator_bound(self, tmp_path, capsys):
        path = tmp_path / "qde.json"
        spec = {"basis": ["1", "xi"], "q_cap": 2,
                "mu": [{"inputs": [0, 0], "output": 0},
                       {"inputs": [0, 1], "output": 1},
                       {"inputs": [1, 1], "output": 0, "q": "1"}]}
        argv = ["cohft", "solve-qde", "--spec", str(path)]
        path.write_text(json.dumps(
            dict(spec, q_denominator=MAX_Q_DENOMINATOR + 1)))
        assert main(argv) == 2
        assert (f"must be at most {MAX_Q_DENOMINATOR}"
                in assert_one_line_error(capsys))
        path.write_text(json.dumps(
            dict(spec, q_denominator=MAX_Q_DENOMINATOR)))
        assert main(argv) == 0
        assert "residual zero: True" in capsys.readouterr().out

    def test_q_denominator_leaves_integral_exponents_alone(self, tmp_path,
                                                           capsys):
        # every q exponent is integral, so sigma is the same over the
        # finer grid, whose other numerators are never reached
        path = tmp_path / "qde.json"
        spec = {"basis": ["1", "xi"], "q_cap": 2,
                "mu": [{"inputs": [0, 0], "output": 0},
                       {"inputs": [0, 1], "output": 1},
                       {"inputs": [1, 1], "output": 0, "q": "1"}]}
        argv = ["cohft", "solve-qde", "--spec", str(path), "--q-cap", "100"]
        outs = []
        for denominator in (1, MAX_Q_DENOMINATOR):
            path.write_text(json.dumps(dict(spec, q_denominator=denominator)))
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "sigma[1][1] = 1 + q*hbar^-2 + 1/4*q^2*hbar^-4" in outs[0]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no limit on int to str conversion")
    def test_unprintable_coefficient_exits_two(self, tmp_path, capsys):
        # P^3 with xi^4 = q^(1/8): the sigma coefficients outgrow a lowered
        # digit limit within --q-cap 20
        path = tmp_path / "qde.json"
        path.write_text(json.dumps(
            {"basis": [f"xi^{i}" for i in range(4)], "q_denominator": 8,
             "q_cap": "1",
             "mu": [{"inputs": [i, j], "output": (i + j) % 4,
                     "q": f"{(i + j) // 4}/8"}
                    for i in range(4) for j in range(4)]}))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            rc = main(["cohft", "solve-qde", "--spec", str(path),
                       "--q-cap", "20"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert rc == 2
        assert "cannot be printed" in assert_one_line_error(capsys)

    def test_bad_guard_value_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("MODULI_MAX_N", "abc")
        assert main(["strata", "--space", "mult", "--n", "3"]) == 2
        assert_one_line_error(capsys)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "treelevel.cli", "kirwan",
             "--weights", "1,2", "--theta", "1", "--degree-bound", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "4*xi^3 = q" in proc.stdout
