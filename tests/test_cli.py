"""CLI subcommands, JSON/CSV outputs, and exit codes."""

import json

import pytest

from boxsearch.cli import main
from boxsearch.study import read_batch_csv, read_ruckle_csv


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"t": [1, 1], "alpha": [0.5, 0.5]}))
    return str(path)


@pytest.fixture
def cyclic_game_file(tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({
        "t": [1, 1], "alpha": [0.75, 0.5],
        "cyclic": {"c": 0.25, "x": [1, 2]},
    }))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestSolveCommand:
    def test_solve_identical_boxes(self, capsys, game_file):
        code, payload = run(capsys, ["solve", game_file, "--epsilon", "1e-6"])
        assert code == 0
        assert payload["termination"] == "converged"
        assert payload["value_lower"] <= 3.5 <= payload["value_upper"]
        assert payload["gap"] < 1e-6
        assert sum(e["weight"] for e in payload["theta"]) == pytest.approx(1.0)
        boxes = payload["theta"][0]["sequence"]["boxes"]
        assert set(boxes) <= {1, 2}  # 1-based

    def test_trace_file(self, capsys, game_file, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = run(capsys, ["solve", game_file, "--trace", str(trace)])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "# boxsearch-trace-v2"
        assert lines[1] == "iter,U,L,gap,added_seq,mispriced"
        assert len(lines) >= 3

    def test_perfect_box(self, capsys, tmp_path):
        path = tmp_path / "ruckle.json"
        path.write_text(json.dumps({
            "t": [1, 1], "alpha": [0.5, 1.0], "allow_perfect": True,
        }))
        code, payload = run(capsys, ["solve", str(path)])
        assert code == 0
        assert payload["termination"] == "converged"
        assert payload["value_lower"] <= 2.4 <= payload["value_upper"]

    def test_cyclic_game(self, capsys, cyclic_game_file):
        code, payload = run(capsys, ["solve", cyclic_game_file])
        assert code == 0
        assert payload["value_upper"] == pytest.approx(2.8, rel=1e-9)


class TestTestP0Command:
    def test_optimal_game(self, capsys, game_file):
        code, payload = run(capsys, ["test-p0", game_file])
        assert code == 0
        assert payload["optimal"] is True
        assert payload["sequences_used"] == 2
        assert payload["v_D"] == pytest.approx(3.5, rel=1e-9)

    def test_perfect_box(self, capsys, tmp_path):
        path = tmp_path / "ruckle.json"
        path.write_text(json.dumps({
            "t": [1, 1], "alpha": [0.5, 1.0], "allow_perfect": True,
        }))
        code, payload = run(capsys, ["test-p0", str(path)])
        assert code == 0
        assert payload["optimal"] is False


class TestBatchCommand:
    def test_writes_csv_and_summary(self, capsys, tmp_path):
        out = tmp_path / "batch.csv"
        code, payload = run(capsys, [
            "batch", "--scheme", "high", "--n", "2", "--count", "5",
            "--epsilon", "1e-3", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert payload["count"] == 5
        records = read_batch_csv(out)
        assert len(records) == 5
        assert all(r.scheme == "high" for r in records)


class TestRuckleCommand:
    def test_sweep(self, capsys, tmp_path):
        out = tmp_path / "ruckle.csv"
        code, payload = run(capsys, [
            "ruckle", "--alphas", "0.7,0.5", "--out", str(out),
        ])
        assert code == 0
        by_alpha = {r["alpha"]: r for r in payload["records"]}
        assert by_alpha[0.7]["h"] == 1
        assert by_alpha[0.5]["h"] == 2
        assert len(read_ruckle_csv(out)) == 2


class TestTwoBoxCommand:
    def test_counts(self, capsys):
        code, payload = run(capsys, [
            "two-box-study", "--count", "5", "--seed", "4",
            "--epsilon", "1e-4",
        ])
        assert code == 0
        assert (
            payload["n_pstar_greater"] + payload["n_pstar_smaller"]
            == payload["n_suboptimal"]
        )


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/game.json"]) == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2

    def test_invalid_game(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"t": [1, -2], "alpha": [0.5, 0.5]}))
        assert main(["solve", str(path)]) == 2

    def test_nan_epsilon(self, capsys, game_file):
        assert main(["solve", game_file, "--epsilon", "nan"]) == 2

    def test_alpha_rounding_one_minus_to_one(self, capsys, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"t": [1, 1], "alpha": [1e-17, 0.5]}))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_bad_alpha_list(self, capsys):
        assert main(["ruckle", "--alphas", "0.5,oops"]) == 2
