import json
import time
import warnings

import numpy as np
import pytest

from omegapair import cli
from omegapair import regions as rg
from omegapair.cli import main
from omegapair.dh import DhParam
from omegapair.pencil import MatrixPair, save_pair
from omegapair.result import finalize_solution


@pytest.fixture
def files(tmp_path):
    def write_pair(name, E, A):
        path = tmp_path / name
        save_pair(path, MatrixPair(np.asarray(E, float), np.asarray(A, float)))
        return str(path)

    def write_region(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write_pair, write_region


HURWITZ = {"intersect": [{"kind": "left_half_plane", "k": 0.0}]}


def test_check_admissible_pair(files, capsys):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    region = write_region("r.json", HURWITZ)
    assert main(["check", "--pair", pair, "--region", region]) == 0
    out = capsys.readouterr().out
    assert "admissible: True" in out


def test_check_rejects_unstable_pair(files, capsys):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), np.eye(2))
    region = write_region("r.json", HURWITZ)
    assert main(["check", "--pair", pair, "--region", region]) == 3
    out = capsys.readouterr().out
    assert "admissible: False" in out
    assert "outside" in out


def test_check_singular_pencil(files, capsys):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    region = write_region("r.json", HURWITZ)
    assert main(["check", "--pair", pair, "--region", region]) == 3
    assert "not regular" in capsys.readouterr().out


def test_solve_stable_input_and_roundtrip(files, capsys):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    region = write_region("r.json", HURWITZ)
    out_dir = str(tmp / "out")
    code = main(["solve", "--pair", pair, "--region", region, "--algo", "fgm",
                 "--time", "2", "--out", out_dir])
    assert code == 0
    with open(tmp / "out" / "result.json") as fh:
        payload = json.load(fh)
    assert payload["admissible"] is True
    assert payload["relative_error"] <= 1e-10
    # the written solution pair re-checks to the same verdict
    code2 = main(["check", "--pair", str(tmp / "out" / "solution_pair.json"),
                  "--region", region])
    assert (code2 == 0) == payload["admissible"]
    trace = (tmp / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == "time_s,objective,relative_error"


def test_solve_flagged_result_exits_2(files, capsys, monkeypatch):
    """A solve whose result is flagged exits 2, prints why and still writes
    its result.json. The dispatch returns a quadruple whose pair has
    eigenvalues near -1 +- 1e6 i, far outside the unit disk, and whose lift
    does not help."""
    tmp, write_pair, write_region = files
    d = DhParam(np.diag([1.0, -1e-15]), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                np.diag([1.0, 0.0]), np.eye(2))
    flagged = finalize_solution(np.eye(2), -np.eye(2), d, rg.schur(), 1.0, algorithm="bcd",
                                iterations=0, stop_reason="iteration budget", trace=[],
                                t0=time.perf_counter())
    monkeypatch.setattr(cli, "_solve", lambda *args: flagged)
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    region = write_region("r.json", {"kind": "disk", "q": 0.0, "r": 1.0})
    code = main(["solve", "--pair", pair, "--region", region, "--algo", "bcd",
                 "--out", str(tmp / "out")])
    assert code == 2
    out = capsys.readouterr().out
    assert "admissible: False" in out
    reasons = [line.split("reason: ", 1)[1] for line in out.splitlines() if "reason: " in line]
    assert reasons and reasons == list(flagged.admissibility.reasons)
    with open(tmp / "out" / "result.json") as fh:
        payload = json.load(fh)
    assert payload["admissible"] is False
    assert payload["reasons"] == reasons


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_check_non_finite_margin_tolerance_exits_1(files, capsys, tol):
    """The eigenvalue 5 lies outside the disk of radius 3: a margin
    tolerance that would accept it is an input error."""
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), [[5.0, 1.0], [0.0, -2.0]])
    region = write_region("r.json", {"intersect": [{"kind": "disk", "q": 0.0, "r": 3.0}]})
    argv = ["check", "--pair", pair, "--region", region, "--tol-margin"]
    assert main(argv + ["1e-9"]) == 3
    capsys.readouterr()
    assert main(argv + [tol]) == 1
    captured = capsys.readouterr()
    assert "admissible: True" not in captured.out
    assert "error: margin_tol" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("mu", ["nan", "inf"])
@pytest.mark.parametrize("algo", ["fgm", "bcd"])
def test_solve_non_finite_mu_exits_1(files, capsys, algo, mu):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    region = write_region("r.json", HURWITZ)
    code = main(["solve", "--pair", pair, "--region", region, "--algo", algo, "--mu", mu,
                 "--max-iters", "5", "--out", str(tmp / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: mu must be finite and positive" in err
    assert "Traceback" not in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("algo, field", [("fgm", "max_iters"), ("bcd", "max_outer_iters")])
def test_solve_negative_iteration_budget_exits_1(files, capsys, algo, field):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    region = write_region("r.json", HURWITZ)
    code = main(["solve", "--pair", pair, "--region", region, "--algo", algo,
                 "--max-iters", "-1", "--out", str(tmp / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {field} must be None or a nonnegative integer" in err
    assert "Traceback" not in err
    assert not (tmp / "out").exists()


def test_solve_auto_picks_bcd_for_disk(files):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), 0.4 * np.eye(2))
    region = write_region("r.json", {"intersect": [{"kind": "disk", "q": 0.0, "r": 1.0}]})
    out_dir = str(tmp / "out")
    code = main(["solve", "--pair", pair, "--region", region, "--time", "10",
                 "--max-iters", "4", "--out", out_dir])
    assert code == 0
    with open(tmp / "out" / "result.json") as fh:
        assert json.load(fh)["algorithm"] == "bcd"


def test_usage_errors_exit_1(files, capsys):
    for argv in (["solve", "--region", "x.json"],
                 ["solve", "--pair", "p.json", "--region", "r.json", "--tol-margin", "1e-3"],
                 ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err


def test_solve_auto_picks_fgm_for_raw_half_plane(files):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    region = write_region("r.json", {"raw": {"B": [[0.0]], "C": [[1.0]]}})
    out_dir = str(tmp / "out")
    assert main(["solve", "--pair", pair, "--region", region, "--time", "2",
                 "--out", out_dir]) == 0
    with open(tmp / "out" / "result.json") as fh:
        assert json.load(fh)["algorithm"] == "fgm"


def test_solve_malformed_pair_file(files, capsys):
    tmp, write_pair, write_region = files
    bad = tmp / "bad.json"
    bad.write_text('{"E": [[1, 0]]}')
    region = write_region("r.json", HURWITZ)
    assert main(["solve", "--pair", str(bad), "--region", region]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n# no rows\n"], ids=["empty", "comment-only"])
def test_check_csv_pair_file_without_data_exits_1_without_a_warning(files, capsys, text):
    """A CSV pair file with no data rows is refused by its shape, with no
    NumPy warning: under warnings-as-errors the check still exits 1."""
    tmp, _, write_region = files
    path = tmp / "empty.csv"
    path.write_text(text)
    region = write_region("r.json", HURWITZ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", "--pair", str(path), "--region", region]) == 1
    err = capsys.readouterr().err
    assert "error: CSV pair file must hold two stacked n x n blocks" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("E, A, overflows", [
    (np.eye(2), [[np.nan, 0.0], [0.0, -1.0]], False),
    (1e300 * np.eye(2), [[-1e300, 1e300], [0.0, -1e300]], True),
], ids=["nan", "1e300"])
def test_solve_non_finite_or_overflowing_pair_exits_1(files, capsys, E, A, overflows):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", E, A)
    region = write_region("r.json", HURWITZ)
    argv = ["solve", "--pair", pair, "--region", region, "--max-iters", "50",
            "--out", str(tmp / "out")]
    if overflows:
        # the 1e300 pair overflows in the solve (it does not scale its input)
        with pytest.warns(RuntimeWarning) as record:
            code = main(argv)
        assert any("overflow" in str(w.message) for w in record)
    else:
        code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


_NO_NAME = '[{"generator": {"kind": "grcar", "n": 4}}]'
_NO_GENERATOR = '[{"name": "x"}]'
_NO_A = '[{"name": "x", "generator": {"kind": "pair", "E": [[1]]}}]'
_MISSING_FIELD = {_NO_NAME: "name", _NO_GENERATOR: "generator", _NO_A: "A"}
_E_NUMBER = '{"E": 5, "A": [[-1]]}'
_E_FLAT = '{"E": [5], "A": [[-1]]}'
_GENERATOR_E_NUMBER = '[{"name": "x", "generator": {"kind": "pair", "E": 5, "A": [[-1]]}}]'


@pytest.mark.parametrize("command, text", [
    ("check", "[[1.0]]"),
    ("bench", "[1]"),
    ("bench", "{}"),
    ("check", '{"E": [[[1]]], "A": [[[1]]]}'),
    ("solve", '{"E": [[[1]]], "A": [[[1]]]}'),
    ("check", '{"E": {"a": 1}, "A": [[1]]}'),
    ("solve", '{"E": [[1]], "A": {"a": 1}}'),
    ("region-info", '{"raw": {"B": {"a": 1}, "C": [[1]]}}'),
    ("solve-region", '{"raw": {"B": [[0]], "C": {"a": 1}}}'),
    ("solve-region", '{"kind": "disk", "q": 0, "r": true}'),
    ("check", '{"E": [[true, false], [false, true]], "A": [[-1, 0], [0, -1]]}'),
    ("region-info", '{"raw": {"B": [[false]], "C": [[true]]}}'),
    ("check", '{"E": [[1, true], [0, 1]], "A": [[-1, 0], [0, -1]]}'),
    ("bench", '[{"name": "x", "generator": 5}]'),
    ("bench", '[{"name": "x", "generator": {"kind": "grcar", "n": [4]}}]'),
    ("bench", '[{"name": "x", "generator": {"kind": "grcar", "n": 4}, "budget_s": [1]}]'),
    ("bench", '[{"name": ["x"], "generator": {"kind": "grcar", "n": 4}, "max_iters": 5}]'),
    ("bench", _NO_NAME),
    ("bench", _NO_GENERATOR),
    ("bench", _NO_A),
    ("check", _E_NUMBER),
    ("check", _E_FLAT),
    ("bench", _GENERATOR_E_NUMBER),
    ("bench", '[{"name": "x", "generator": {"kind": "grcar", "n": 100000000}}]'),
], ids=["pair-list", "bench-entry-number", "bench-spec-object", "check-pair-3d",
        "solve-pair-3d", "check-pair-E-object", "solve-pair-A-object",
        "region-info-raw-B-object", "solve-raw-C-object", "solve-disk-r-boolean",
        "check-pair-E-boolean", "region-info-raw-boolean", "check-pair-E-mixed-boolean",
        "bench-generator-number", "bench-n-list", "bench-budget-list", "bench-name-list",
        "bench-no-name", "bench-no-generator", "bench-pair-no-A", "check-pair-E-number",
        "check-pair-E-flat-list", "bench-pair-E-number", "bench-n-unallocatable"])
def test_malformed_input_files_exit_1_without_traceback(files, capsys, command, text):
    """A pair file that is no JSON object or holds no matrices, a bench spec
    that is no JSON list, a bench entry that is no object, lacks a required
    field or has a field of the wrong JSON type, a region whose (B, C) is no
    matrix, a matrix with a boolean entry, a primitive with a boolean
    parameter or a generator size NumPy cannot allocate (n = 10^8, 71 PiB,
    refused at once) is an input error. A bare number or a flat list is no
    matrix.
    A missing field, and a pair field that is no array of rows, is named."""
    tmp, write_pair, write_region = files
    path = tmp / "input.json"
    path.write_text(text)
    region = write_region("r.json", HURWITZ)
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    argv = {"check": ["check", "--pair", str(path), "--region", region],
            "solve": ["solve", "--pair", str(path), "--region", region,
                      "--out", str(tmp / "out")],
            "region-info": ["region-info", "--region", str(path)],
            "solve-region": ["solve", "--pair", pair, "--region", str(path),
                             "--out", str(tmp / "out")],
            "bench": ["bench", "--spec", str(path), "--out", str(tmp / "bench")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    if text in _MISSING_FIELD:
        assert f"no field {_MISSING_FIELD[text]!r}" in err
    if text in (_E_NUMBER, _E_FLAT, _GENERATOR_E_NUMBER):
        assert "field 'E' must be a matrix of numbers, a JSON array of rows" in err
    assert not (tmp / "bench").exists()
    assert not (tmp / "out").exists()


def test_solve_infeasible_region(files, capsys):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    region = write_region("r.json", {"intersect": [
        {"kind": "disk", "q": -3.0, "r": 1.0},
        {"kind": "disk", "q": 3.0, "r": 1.0}]})
    code = main(["solve", "--pair", pair, "--region", region, "--algo", "bcd",
                 "--time", "2"])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err.lower()


def test_region_info(files, capsys):
    tmp, write_pair, write_region = files
    region = write_region("r.json", {"intersect": [
        {"kind": "disk", "q": 0.0, "r": 1.0},
        {"kind": "left_half_plane", "k": 0.0}]})
    assert main(["region-info", "--region", region]) == 0
    out = capsys.readouterr().out
    assert "size: 3" in out
    assert "disk" in out and "left_half_plane" in out


def test_plot_data(files, capsys):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), -0.5 * np.eye(2))
    region = write_region("r.json", {"intersect": [{"kind": "disk", "q": 0.0, "r": 1.0}]})
    out_dir = str(tmp / "plots")
    code = main(["plot-data", "--region", region, "--pair", pair,
                 "--bounds=-1.5,1.5,-1.2,1.2", "--grid", "31,25",
                 "--out", out_dir])
    assert code == 0
    assert (tmp / "plots" / "boundary.csv").exists()
    assert (tmp / "plots" / "eigenvalues_00.csv").exists()


def test_bench_subcommand(files, capsys):
    tmp, write_pair, write_region = files
    spec = [{"name": "tiny", "generator": {"kind": "grcar", "n": 4, "k": 1},
             "region": {"kind": "left_half_plane", "k": 0.0},
             "algorithm": "fgm", "budget_s": 2.0, "max_iters": 60}]
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = str(tmp / "bench")
    assert main(["bench", "--spec", str(spec_path), "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "tiny" in out
    assert (tmp / "bench" / "results.csv").exists()


def test_malformed_region_files_exit_1(files, capsys):
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), -np.eye(2))
    for i, spec in enumerate(({"kind": "disk", "q": None, "r": 1},
                              {"intersect": 3}, {"raw": {"C": [[1.0]]}})):
        region = write_region(f"r{i}.json", spec)
        assert main(["check", "--pair", pair, "--region", region]) == 1
        err = capsys.readouterr().err
        assert "error" in err
    assert "needs matrices 'B' and 'C'" in err  # the raw spec without B


def test_solve_fgm_outside_hurwitz_is_a_usage_error(files, capsys):
    """fgm solves for the left half-plane only; it must not report a pair
    admissible for a region it never looked at."""
    tmp, write_pair, write_region = files
    pair = write_pair("p.json", np.eye(2), [[-0.5, 2.0], [-2.0, -0.5]])
    region = write_region("r.json", {"kind": "disk", "q": -3.0, "r": 1.0})
    code = main(["solve", "--pair", pair, "--region", region, "--algo", "fgm",
                 "--time", "2", "--out", str(tmp / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "--algo bcd" in err
    assert not (tmp / "out").exists()


def test_bench_fgm_outside_hurwitz_is_an_error_row(files, capsys):
    tmp, write_pair, write_region = files
    spec = [{"name": "disk", "generator": {"kind": "pair", "E": np.eye(2).tolist(),
                                           "A": [[-0.5, 2.0], [-2.0, -0.5]]},
             "region": {"kind": "disk", "q": -3.0, "r": 1.0},
             "algorithm": "fgm", "budget_s": 2.0, "max_iters": 60}]
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp / "bench"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out_dir)]) == 0
    header, line = (out_dir / "results.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",", 8)))
    assert row["admissible"] == "False"
    assert row["error"].startswith("ValueError") and "--algo bcd" in row["error"]


def test_bench_duplicate_instance_names_exit_1(files, capsys):
    tmp, write_pair, write_region = files
    entry = {"generator": {"kind": "grcar", "n": 4, "k": 1},
             "algorithm": "fgm", "budget_s": 2.0, "max_iters": 5}
    for names in (["a b", "a_b"], ["x", "x"]):
        spec_path = tmp / "spec.json"
        spec_path.write_text(json.dumps([{**entry, "name": n} for n in names]))
        out_dir = tmp / "bench"
        assert main(["bench", "--spec", str(spec_path), "--out", str(out_dir)]) == 1
        assert "unique" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("flag, value, names", [
    ("--bounds", "nan,1,0,1", "bounds"),
    ("--bounds", "-inf,1,0,1", "bounds"),
    ("--bounds", "5,-5,-3,3", "bounds"),
    ("--bounds", "-5,5,3,-3", "bounds"),
    ("--bounds", "-5,5,-3", "bounds"),
    ("--bounds", "-5,5,-3,x", "--bounds"),
    ("--grid", "0,0", "grid"),
    ("--grid", "161,1", "grid"),
    ("--grid", "161", "--grid"),
    ("--grid", "161,x", "--grid"),
], ids=["nan", "minus-inf", "x-reversed", "y-reversed", "three-bounds", "bound-text",
        "grid-empty", "grid-one-row", "grid-one-number", "grid-text"])
def test_plot_data_bad_bounds_or_grid_exit_1(files, capsys, flag, value, names):
    """Bounds that are not four finite numbers with xmin < xmax and
    ymin < ymax, or a grid that is not two numbers of at least 2 nodes
    each, are input errors: exit 1, no traceback, no warning and no
    output written, where they once gave an empty boundary.csv or a bare
    unpacking error."""
    tmp, write_pair, write_region = files
    region = write_region("r.json", {"intersect": [{"kind": "disk", "q": 0.0, "r": 1.0}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["plot-data", "--region", region, f"{flag}={value}",
                     "--out", str(tmp / "plots")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err
    assert "Traceback" not in err
    assert not (tmp / "plots").exists()
