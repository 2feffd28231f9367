import csv
import json
import math
import sys

import numpy as np
import pytest

from spectral_intervals.cli import main
from spectral_intervals.evolution import PiecewiseExpPoly, apply_U_paths
from spectral_intervals.intervals import new_interval_union
from spectral_intervals.paths import end_states

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
    assert rep["root_count"] == sum(rep["dims"]) == len(want)


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
    # one path table per start interval and sign of t at most
    assert 1 <= rep["local_translation"]["tables"] <= 4
    assert rep["local_translation"]["states"] >= 5
    # the README pair's tables drop states of weight 0; both fields count
    # table states
    lt = rep["local_translation"]
    assert 0 < lt["zero_states"] < lt["table_states"]
    assert lt["state_bound"] <= lt["table_states"]
    assert {c["name"] for c in rep["structure"]} >= {"gap_lengths", "diagonal"}
    assert rep["evidence"]["max_offdiagonal"] < 1e-8
    assert rep["root_count"] == sum(rep["dims"])


def test_verify_trials_on_eight_unit_intervals(tmp_path, capsys):
    # 2*{0..7} + [0, 1) with the B of the spectrum {k/16 : k < 8} + Z: at
    # |t| = 15 the paths number up to 8^16, the states keyed by covered
    # length at most 8 * 16
    alphas = 2.0 * np.arange(8)
    lams = np.arange(8) / 16
    b = np.exp(2j * np.pi * np.outer(alphas + 1, lams)) @ np.linalg.inv(
        np.exp(2j * np.pi * np.outer(alphas, lams))
    )
    prob = {
        "intervals": [[a, a + 1] for a in alphas.tolist()],
        "matrix": [[[z.real, z.imag] for z in row] for row in b.tolist()],
        "window": [-2.0, 2.0],
    }
    path = tmp_path / "lattice8.json"
    path.write_text(json.dumps(prob))
    code, rep = run_json(capsys, ["verify", str(path), "--trials", "40", "--seed", "1"])
    assert code == 0
    lt = rep["local_translation"]
    assert lt["passed"] and lt["max_error"] < 1e-9
    assert lt["cap"] == 10 ** 6
    assert 8 <= lt["state_bound"] <= 8 * 16


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
    # 4 samples on every sub-piece, one atom per sub-piece (the bump is a polynomial)
    assert len(rep["samples"]) == 4 * rep["stats"]["pieces"]
    assert rep["stats"]["atoms"] == rep["stats"]["pieces"]


def _assert_stats(stats, stages):
    assert stats["states"] >= 1 and stats["ends"] >= 1
    assert 1 <= stats["state_bound"] <= stats["cap"] == 10 ** 6
    assert set(stats["seconds"]) == stages
    assert all(s >= 0 for s in stats["seconds"].values())


def test_evolve_and_paths_stats(problem, capsys):
    code, rep = run_json(capsys, ["evolve", problem, "--t", "2.3"])
    assert code == 0
    _assert_stats(rep["stats"], {"function", "tables", "cuts", "pieces", "samples"})
    assert rep["stats"]["tables"] == 2
    # two unit intervals: at most 2 * (2 + 1) states per table
    assert rep["stats"]["state_bound"] == 6
    assert len(rep["samples"]) == 16 * rep["stats"]["pieces"]
    code, rep = run_json(capsys, ["paths", problem, "--x", "0.5", "--t", "2.0", "--list-paths"])
    assert code == 0
    _assert_stats(rep["stats"], {"table", "sums", "identities", "list_paths"})
    assert rep["stats"]["tables"] == 1
    # the two paths that end at 0.5 cancel exactly: their state, one of the
    # 2 * 2 states, is dropped, and 2.5 is the one end
    assert (rep["stats"]["states"], rep["stats"]["zero_states"]) == (4, 1)
    assert rep["stats"]["ends"] == 1
    code, rep = run_json(capsys, ["verify", problem, "--trials", "5"])
    assert rep["local_translation"]["cap"] == 10 ** 6
    assert 1 <= rep["local_translation"]["state_bound"] <= 6


def test_evolve_csv_rows_equal_json_samples(problem, capsys, tmp_path):
    argv = ["evolve", problem, "--t", "-0.7", "--samples", "5"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    out = tmp_path / "evolve.csv"
    assert main([*argv, "--format", "csv", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re", "im"]
    got = [tuple(float(v) for v in row) for row in rows[1:]]
    assert got == [(s["x"], *s["value"]) for s in rep["samples"]]
    # the samples are values of the evolved bump
    om = new_interval_union(PAIR["intervals"])
    b = np.array([[complex(*v) for v in row] for row in PAIR["matrix"]])
    bump = PiecewiseExpPoly.from_atoms(om, [[(0.0, (-a * c, a + c, -1.0))] for a, c in om.endpoints])
    xs = np.array([s["x"] for s in rep["samples"]])
    want = apply_U_paths(om, b, -0.7, bump).function(xs)
    assert [s["value"] for s in rep["samples"]] == [[v.real, v.imag] for v in want]


def test_json_report_is_one_line(problem, capsys):
    assert main(["verify", problem]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["command"] == "verify"


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
    # four words, two of which end at 0.5 and cancel exactly: path_count
    # counts the two that pass only through states of nonzero weight
    assert rep["path_count"] == 2
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


@pytest.mark.parametrize("cap", ["abc", "0", "-3"])
def test_bad_path_cap_exits_1(problem, monkeypatch, capsys, cap):
    monkeypatch.setenv("SPECTRAL_INTERVALS_MAX_PATHS", cap)
    assert main(["paths", problem, "--x", "0.5", "--t", "3.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SPECTRAL_INTERVALS_MAX_PATHS must be a positive integer")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--window", "1", "1"],
        ["spectrum", "--grid-step", "0"],
        ["verify", "--grid-step", "0"],
        ["evolve", "--t", "0.3", "--function", "eigenfunction:0", "--grid-step", "-1"],
        ["congruence", "--modulus", "0"],
        ["verify", "--trials", "-5"],
        ["evolve", "--t", "0.3", "--samples", "0"],
        ["evolve", "--t", "0.3", "--samples", "-2"],
        ["evolve", "--t", "inf", "--function", "bump"],
        ["evolve", "--t=-inf", "--function", "bump"],
        ["evolve", "--t", "nan", "--function", "bump"],
        ["paths", "--x", "0.5", "--t", "inf"],
        ["paths", "--x", "0.5", "--t", "nan"],
        ["evolve", "--t", "0.3", "--function", "eigenfunction:x"],
    ],
)
def test_bad_numbers_exit_1_without_traceback(problem, capsys, argv):
    assert main([argv[0], problem, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unmet_count_certificate_exits_2(tmp_path, capsys, monkeypatch):
    # with a zero SVD cut-off no eigenspace is found: the solver must refuse
    # to report roots without eigenvectors
    from spectral_intervals import spectrum

    path = tmp_path / "unequal.json"
    path.write_text(json.dumps(dict(PAIR, intervals=[[0, 1], [2, 3.5]])))
    monkeypatch.setattr(spectrum, "TOL_EIG", 0.0)
    assert main(["spectrum", str(path)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")


@pytest.mark.parametrize("command", ["classify", "paths", "congruence"])
def test_grid_step_only_where_a_spectrum_is_scanned(problem, command):
    extra = ["--x", "0.5", "--t", "1.0"] if command == "paths" else []
    with pytest.raises(SystemExit):
        main([command, problem, *extra, "--grid-step", "0.1"])


@pytest.mark.parametrize(
    "text",
    [
        None,  # no such file
        '{"intervals": [[0, 1], [2, 3]],',
        json.dumps(dict(PAIR, matrix=[[[1, 0], [0, 0]], [[0, 0]]])),
        json.dumps(dict(PAIR, window=[-2.2])),
    ],
    ids=["missing-file", "invalid-json", "ragged-matrix", "one-number-window"],
)
def test_bad_problem_files_exit_1_without_traceback(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_text(text)
    assert main(["spectrum", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # about 2e9 roots predicted
        ["--window", "0", "1e9"],
        # about 4e12 grid points
        ["--window", "-2", "2", "--grid-step", "1e-12"],
    ],
)
def test_oversized_scan_exits_3_at_once(tmp_path, capsys, argv):
    # the guard trips before a grid is allocated.  The root guard trips
    # before the method is chosen; the grid guard only where the spectrum
    # is scanned, so the pair has unequal lengths and no closed form
    path = tmp_path / "scanned.json"
    path.write_text(json.dumps(dict(PAIR, intervals=[[0, 1], [2, 3.5]])))
    assert main(["spectrum", str(path), *argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard exceeded:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--t", "70"],
        ["paths", "--x", "0.5", "--t", "70"],
        ["paths", "--x", "0.5", "--t", "-70"],
        ["paths", "--x", "0.5", "--t", "1000.25"],
    ],
)
def test_path_counts_past_int64_exit_0(problem, capsys, argv):
    # the README pair has 2^(|t| + 1) words, but its states cancel exactly
    # every second crossing: a table holds 2 states per covered length, and
    # U(t) moves the point with weight 1.  At t = 1000.25 the words through
    # states of nonzero weight number 2^500, past int64, reported whole
    code, rep = run_json(capsys, [argv[0], problem, *argv[1:]])
    assert code == 0
    t = float(argv[-1])
    assert rep["stats"]["state_bound"] <= 2 * math.ceil(abs(t) + 1)
    assert rep["stats"]["zero_states"] > 0
    if argv[0] == "paths":
        (end,) = rep["end_sums"]
        assert end["weight"] == pytest.approx([1.0, 0.0], abs=1e-9)
    if t > 1000:
        assert rep["path_count"] > 2**63


def test_path_counts_past_4300_digits_are_written_whole(problem, capsys, monkeypatch):
    # at t = 30000.25 the README pair's one end is reached by 2^15000
    # paths, 4516 decimal digits: past the interpreter's default limit on
    # writing an int, which the report lifts while it is written alone
    monkeypatch.setenv("SPECTRAL_INTERVALS_MAX_PATHS", str(5 * 10**6))
    limit = sys.get_int_max_str_digits()
    assert main(["paths", problem, "--x", "0.5", "--t", "30000.25"]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        rep = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert rep["path_count"] == 2**15000
    (end,) = rep["end_sums"]
    assert end["weight"] == pytest.approx([1.0, 0.0], abs=1e-9)


#: lengths 1, sqrt 2, sqrt 3, sqrt 5 with B the 4x4 Sylvester Hadamard
#: matrix over 2
FOUR_LENGTHS = {
    "intervals": [
        [0, 1], [1.5, 2.914213562373095], [3.5, 5.232050807568877], [6, 8.23606797749979]
    ],
    "matrix": (np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2).tolist(),
}


def test_path_count_sums_past_int64(tmp_path, capsys):
    # at t = 50 the table holds 243,112 states, each of fewer than 2^63
    # paths, and the paths from x = 0.5 add up to about 1.5e20
    path = tmp_path / "four.json"
    path.write_text(json.dumps(FOUR_LENGTHS))
    code, rep = run_json(capsys, ["paths", str(path), "--x", "0.5", "--t", "50"])
    assert code == 0
    assert rep["stats"]["state_bound"] == rep["stats"]["states"] == 243_112
    om = new_interval_union(FOUR_LENGTHS["intervals"])
    counts = end_states(om, np.array(FOUR_LENGTHS["matrix"]), 0.5, 50.0).count
    assert rep["path_count"] == sum(counts.tolist()) > 2**63


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_spectrum_stats(tmp_path, capsys, command):
    path = tmp_path / "unequal.json"
    path.write_text(json.dumps(dict(PAIR, intervals=[[0, 1], [2, 3.5]])))
    code, rep = run_json(capsys, [command, str(path)])
    assert code == 0
    stats = rep["spectrum_stats"]
    assert stats["grid_points"] >= 2 and stats["bracket_iterations"] >= 1
    # eigenphases at the knots, g by stacked LU at every grid point
    assert 2 <= stats["knots"] <= stats["grid_points"]
    assert 0 <= stats["recounted"] < stats["knots"]
    assert stats["eig_rows"] >= stats["knots"] + stats["bisected_cells"]
    # every eigenspace comes from the shifted solve or the SVD
    assert stats["svd_rows"] + stats["solve_rows"] == len(rep["eigenvalues"])
    # the simple roots are solved on the real determinant, by stacked LU
    assert stats["lu_rows"] >= stats["grid_points"]
    # matrices with an eigenvalue near -1 are among the decomposed ones
    assert 0 <= stats["pole_rows"] <= stats["eig_rows"]
    # how each root was refined: on g, on the nearest angle or at the floor
    refined = stats["g_roots"] + stats["angle_roots"] + stats["floor_roots"]
    assert stats["g_roots"] >= 1
    assert len(rep["eigenvalues"]) <= refined <= rep["root_count"]
    assert set(stats["seconds"]) == {"grid", "locate", "eigenspaces"}


def test_equal_length_spectrum_stats(problem, capsys):
    # verify takes the equal-length shortcut: it decomposes B once and scans
    # no grid
    code, rep = run_json(capsys, ["verify", problem])
    assert code == 0
    stats = rep["spectrum_stats"]
    assert (stats["grid_points"], stats["levels"], stats["bracket_iterations"]) == (0, 0, 0)
    assert stats["knots"] == stats["recounted"] == 0
    assert stats["eig_rows"] == 1
    assert stats["lu_rows"] == stats["pole_rows"] == 0
    assert stats["g_roots"] == stats["angle_roots"] == stats["floor_roots"] == 0


TILING = {
    "intervals": [[0, 1], [4.03, 5.04], [8.07, 9.09]],
    "matrix": [[[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0]]],
    "window": [-2, 2],
}


@pytest.mark.parametrize(
    "data, method, verdict",
    [
        (PAIR, "equal_length", "spectral_exact"),
        (dict(PAIR, intervals=[[0, 1], [2, 3.5]]), "scan", "not_spectral"),
        (TILING, "cycles", "spectral_exact"),
    ],
)
def test_verify_reports_its_method(tmp_path, capsys, data, method, verdict):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code, rep = run_json(capsys, ["verify", str(path)])
    assert code == 0
    assert (rep["method"], rep["verdict"]) == (method, verdict)
    if method == "cycles":
        # read off the cycles: no grid, no decomposition
        stats = rep["spectrum_stats"]
        assert all(v == 0 for k, v in stats.items() if k != "seconds")
        assert len(rep["eigenvalues"]) == rep["root_count"] == 13
        code = main(["evolve", str(path), "--t", "0.7", "--function", "eigenfunction:0"])
        capsys.readouterr()
        assert code == 0
    # spectrum takes the method verify takes, and gives the same spectrum
    code, spec = run_json(capsys, ["spectrum", str(path)])
    assert code == 0
    assert spec["method"] == method
    assert spec["eigenvalues"] == rep["eigenvalues"]
    assert spec["dims"] == rep["dims"]


def test_verify_trial_stage_seconds(problem, capsys):
    code, rep = run_json(capsys, ["verify", problem, "--trials", "5"])
    assert code == 0
    seconds = rep["local_translation"]["seconds"]
    assert set(seconds) == {"draw", "states", "evaluate"}
    assert all(s >= 0 for s in seconds.values())


def test_long_single_path_is_listed(tmp_path, capsys):
    # one path, 4,999 full crossings of the one interval deep: the listing
    # must not recurse once per crossing
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"intervals": [[0, 1]], "matrix": [[[1, 0]]]}))
    argv = ["paths", str(path), "--list-paths", "--x", "0.5", "--t", "5000"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    (listed,) = rep["paths"]
    assert listed["word"] == [0] * 5001
    assert listed["end"] == pytest.approx(0.5)
    assert rep["path_count"] == 1


def test_deep_gap_decomposition_in_verify(tmp_path, capsys):
    # the gap 4,999 is 4,999 unit lengths: a search that deep must not
    # recurse once per length
    path = tmp_path / "far.json"
    path.write_text(json.dumps(dict(PAIR, intervals=[[0, 1], [5000, 5001]])))
    code, rep = run_json(capsys, ["verify", str(path)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    gap = next(c for c in rep["structure"] if c["name"] == "gap_lengths")
    assert gap["status"] == "pass"


def test_length_units_in_the_reports(tmp_path, capsys):
    # pieces of [0, 3.03) of lengths 1, 1.01 and 1.02, moved by multiples of
    # 3.03 and cycled by B: one length class of unit 0.01
    path = tmp_path / "tiling.json"
    cycle = [[[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0]]]
    intervals = [[0, 1], [4.03, 5.04], [8.07, 9.09]]
    path.write_text(json.dumps({"intervals": intervals, "matrix": cycle, "window": [-2, 2]}))
    code, rep = run_json(capsys, ["verify", str(path), "--trials", "40", "--seed", "1"])
    assert code == 0
    assert rep["local_translation"]["passed"]
    assert rep["local_translation"]["length_units"] == pytest.approx([0.01], rel=1e-12)
    code, rep = run_json(capsys, ["paths", str(path), "--x", "0.5", "--t", "7.9"])
    assert code == 0
    assert rep["identities"]["passed"]
    assert rep["stats"]["length_units"] == pytest.approx([0.01], rel=1e-12)
    readme = tmp_path / "pair.json"
    readme.write_text(json.dumps(PAIR))
    code, rep = run_json(capsys, ["paths", str(readme), "--x", "0.5", "--t", "2.0"])
    assert rep["stats"]["length_units"] == [1.0]
