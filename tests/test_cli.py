import json
import subprocess
import sys
import time

import pytest

from treelevel.cli import main
from treelevel.graphs import MarkedGraph
from treelevel.selftest import singular_cone_tree


def assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


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

    @pytest.mark.parametrize("text", [
        "{bad",
        json.dumps({"kind": "colored_tree", "vertices": [{"id": 0}],
                    "legs": {"0": 0}}),
        json.dumps({"kind": "weird", "vertices": []}),
        json.dumps({"kind": "colored_tree",
                    "vertices": [{"id": 0, "color": "red"}],
                    "legs": {"0": 0}}),
    ], ids=["not-json", "missing-color", "unknown-kind", "unknown-color"])
    def test_bad_graph_file_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(text)
        assert main(["cone", "--graph", str(path)]) == 2
        assert_one_line_error(capsys)

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
