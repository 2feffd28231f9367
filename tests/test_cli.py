import json

import numpy as np
import pytest

from spectral_intervals.cli import main

PAIR = {
    "intervals": [[0, 1], [2, 3]],
    "matrix": [
        [[0.5, 0.5], [0.5, -0.5]],
        [[0.5, -0.5], [0.5, 0.5]],
    ],
    "window": [-2.2, 2.2],
}


@pytest.fixture
def problem(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(PAIR))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_spectrum_json(problem, capsys):
    code, rep = run_json(capsys, ["spectrum", problem])
    assert code == 0
    assert rep["command"] == "spectrum"
    assert len(rep["problem_sha256"]) == 64
    got = rep["eigenvalues"]
    want = sorted(k + r for k in range(-3, 3) for r in (0.0, 0.25) if -2.2 <= k + r <= 2.2)
    assert got == pytest.approx(want, abs=1e-9)
    assert all(rep["constant_flags"])


def test_spectrum_csv_and_out(problem, capsys, tmp_path):
    out = tmp_path / "spec.csv"
    code = main(["spectrum", problem, "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,dim,constant"
    assert len(lines) > 5


def test_window_flag_overrides(problem, capsys):
    code, rep = run_json(capsys, ["spectrum", problem, "--window", "-0.1", "0.3"])
    assert code == 0
    assert rep["eigenvalues"] == pytest.approx([0.0, 0.25], abs=1e-9)


def test_verify(problem, capsys):
    code, rep = run_json(capsys, ["verify", problem, "--trials", "5"])
    assert code == 0
    assert rep["verdict"] == "spectral_exact"
    assert rep["local_translation"]["passed"]
    assert {c["name"] for c in rep["structure"]} >= {"gap_lengths", "diagonal"}
    assert rep["evidence"]["max_offdiagonal"] < 1e-8


def test_verify_adjacent_tiling_pair(tmp_path, capsys):
    # pieces of [0, 3) moved by multiples of 3, the first two touching at 1;
    # B sends each right end to the next left end (a 3-cycle)
    prob = {
        "intervals": [[0, 1], [1, 2], [5, 6]],
        "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        "window": [-2.1, 2.1],
    }
    path = tmp_path / "adjacent.json"
    path.write_text(json.dumps(prob))
    code, rep = run_json(capsys, ["verify", str(path), "--trials", "10"])
    assert code == 0
    assert rep["verdict"].startswith("spectral")
    assert rep["local_translation"]["passed"]
    checks = {c["name"]: c["status"] for c in rep["structure"]}
    assert checks["gap_lengths"] == "pass"
    assert checks["adjacency"] == "pass"


def test_verify_not_spectral(tmp_path, capsys):
    prob = dict(PAIR, matrix=[[0, 1], [1, 0]])
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(prob))
    code, rep = run_json(capsys, ["verify", str(path)])
    assert code == 0
    assert rep["verdict"] == "not_spectral"
    assert rep["witness_lambda"] == pytest.approx(0.5, abs=1e-9)


def test_evolve(problem, capsys):
    code, rep = run_json(capsys, ["evolve", problem, "--t", "0.5", "--samples", "4"])
    assert code == 0
    assert rep["path_count"] > 0
    assert rep["samples"]
    for s in rep["samples"]:
        assert len(s["value"]) == 2


def test_evolve_eigenfunction(problem, capsys):
    code, rep = run_json(
        capsys,
        ["evolve", problem, "--t", "0.3", "--function", "eigenfunction:0"],
    )
    assert code == 0


def test_classify(problem, capsys, tmp_path):
    code, rep = run_json(capsys, ["classify", problem])
    assert code == 0
    assert rep["kind"] == "general"

    forelli = {
        "intervals": [[0, 1], [3, 4]],
        "matrix": [[[0, 0], [0, 1]], [[-1, 0], [0, 0]]],
        "window": [-3.2, 3.2],
    }
    path = tmp_path / "forelli.json"
    path.write_text(json.dumps(forelli))
    code, rep = run_json(capsys, ["classify", str(path)])
    assert code == 0
    assert rep["kind"] == "weighted_permutation"
    assert rep["weighted_permutation"]["passed"]
    assert rep["weighted_permutation"]["theta0"] == pytest.approx(0.25, abs=1e-8)


def test_paths(problem, capsys):
    code, rep = run_json(
        capsys, ["paths", problem, "--x", "0.5", "--t", "2.0", "--list-paths"]
    )
    assert code == 0
    assert rep["path_count"] == 4
    assert rep["identities"]["passed"]
    assert rep["identities"]["target_sum"] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert len(rep["paths"]) == 4


def test_paths_identities_use_their_own_end_tolerance(tmp_path, capsys):
    # crossing interval 2 instead of 0 or 1 ends the path 5e-8 short of x+t;
    # the report's end sums merge the two ends (their tolerance grows with
    # the ends near -1000), the identities (tolerance from the right end of
    # the set, 1e-9) keep them apart
    from spectral_intervals.intervals import new_interval_union
    from spectral_intervals.paths import enumerate_paths, path_sum_by_end

    delta = 5e-8
    intervals = [[-1000, -999], [-3, -2], [-1, delta]]
    matrix = (np.array([[2, -1, 2], [2, 2, -1], [-1, 2, 2]]) / 3).tolist()
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"intervals": intervals, "matrix": matrix}))
    x, t = -2.5, 1.8
    code, rep = run_json(capsys, ["paths", str(path), "--x", str(x), "--t", str(t)])
    assert code == 0

    omega = new_interval_union(intervals)
    paths = enumerate_paths(omega, np.array(matrix), x, t)
    end_tol = 1e-9 * max(1.0, abs(omega.endpoints[-1][1]))
    split = path_sum_by_end(paths, end_tol)
    merged = path_sum_by_end(paths)
    assert len(split.sums) == 2 * len(merged.sums)
    assert [e["end"] for e in rep["end_sums"]] == pytest.approx(merged.ends, abs=1e-12)
    flat = [e for pair in merged.flagged for e in pair]
    assert [e for pair in rep["flagged_clusters"] for e in pair] == pytest.approx(flat, abs=1e-12)

    target = x + t
    want_target = split.sum_at(target, end_tol)
    want_offending = [(e, s) for e, s in split.sums if abs(e - target) > end_tol and abs(s) > 1e-10]
    assert abs(want_target - 1) > 1e-10
    ident = rep["identities"]
    assert not ident["passed"]
    assert ident["target_sum"] == pytest.approx([want_target.real, want_target.imag], abs=1e-12)
    got = [(o["end"], complex(*o["weight"])) for o in ident["offending"]]
    want = [(target, want_target)] + want_offending
    assert [e for e, _ in got] == pytest.approx([e for e, _ in want], abs=1e-12)
    assert [w for _, w in got] == pytest.approx([w for _, w in want], abs=1e-12)
    assert any(abs(e - (target - delta)) < 1e-12 for e, _ in got)


def test_congruence(problem, capsys):
    code, rep = run_json(capsys, ["congruence", problem, "--modulus", "1"])
    assert code == 0
    assert rep["congruent"]
    shifts = {p["interval"]: p["shift"] for p in rep["pieces"]}
    assert shifts == {0: 0.0, 1: -1.0}


def test_exit_code_validation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"intervals": [[0, 1], [0.5, 2]]}))
    assert main(["spectrum", str(path)]) == 1
    path.write_text(json.dumps({"intervals": [[0, 1]]}))
    assert main(["spectrum", str(path)]) == 1  # missing matrix


def test_exit_code_guard(problem, monkeypatch, capsys):
    monkeypatch.setenv("SPECTRAL_INTERVALS_MAX_PATHS", "4")
    assert main(["paths", problem, "--x", "0.5", "--t", "3.0"]) == 3
