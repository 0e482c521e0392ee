import json
import os

import numpy as np
import pytest
import scipy.linalg

from omegapair import regions as rg
from omegapair.bench import (BenchInstance, _solve, grcar, msd, near_schur,
                             region_plot_data, relative_error, run_table)
from omegapair.pencil import MatrixPair, admissibility_check, spectrum
from omegapair.result import read_trace


def test_grcar_hand_example():
    pair = grcar(3, 1)
    np.testing.assert_allclose(pair.A, [[1.0, 1.0, 0.0],
                                        [-1.0, 1.0, 1.0],
                                        [0.0, -1.0, 1.0]])
    np.testing.assert_allclose(pair.E, np.eye(3))


def test_grcar_E_identity_and_unstable():
    for n, k in ((5, 1), (10, 2), (8, 3)):
        pair = grcar(n, k)
        np.testing.assert_allclose(pair.E, np.eye(n))
    rep = spectrum(grcar(10, 1))
    assert all(lam.real > 0 for lam in rep.finite_eigenvalues)


def test_grcar_k_out_of_range():
    with pytest.raises(ValueError):
        grcar(5, 0)
    with pytest.raises(ValueError):
        grcar(5, 5)


def test_msd_block_structure():
    n = 4
    pair, d = msd(n, 0.3)
    I = np.eye(n)
    Z = np.zeros((n, n))
    np.testing.assert_allclose(d.J, np.block([[Z, -I], [I, Z]]))
    K = d.Q[n:, n:]
    np.testing.assert_allclose(d.Q, scipy.linalg.block_diag(I, K))
    np.testing.assert_allclose(pair.E[:n, :n], I)
    np.testing.assert_allclose(d.R[n:, n:], -0.3 * I)
    np.testing.assert_allclose(pair.A, (d.J - d.R) @ d.Q)


def test_msd_stability_transition():
    pair0, _ = msd(10, 0.0)
    rep0 = spectrum(pair0)
    assert rep0.finite_eigenvalues.real.max() <= 1e-10
    pair1, _ = msd(10, 0.1)
    rep1 = spectrum(pair1)
    assert rep1.finite_eigenvalues.real.max() > 0


def test_near_schur_construction():
    pair = near_schur(10, 0.0, seed=7)
    mods = np.abs(np.linalg.eigvals(pair.A))
    np.testing.assert_allclose(mods, 1.0, atol=1e-10)

    n, eps = 8, 0.37
    rng = np.random.default_rng(123)
    U = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    pair2 = near_schur(n, eps, seed=123)
    assert np.linalg.norm(pair2.A - U, "fro") == pytest.approx(
        eps * np.sqrt(n), rel=1e-12)

    pair3 = near_schur(10, 1.0, seed=42)
    assert np.abs(np.linalg.eigvals(pair3.A)).max() > 1.0


def test_generators_are_pure():
    a1, _ = msd(6, 0.05)
    a2, _ = msd(6, 0.05)
    assert np.array_equal(a1.A, a2.A) and np.array_equal(a1.E, a2.E)
    b1 = near_schur(6, 0.5, seed=9)
    b2 = near_schur(6, 0.5, seed=9)
    assert np.array_equal(b1.A, b2.A)
    assert not np.array_equal(b1.A, near_schur(6, 0.5, seed=10).A)


def test_relative_error_examples():
    E, A = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert relative_error(E, A, E, A) == 0.0
    assert relative_error(E, A, np.zeros((2, 2)), np.zeros((2, 2))) == 1.0
    assert relative_error(np.eye(1), [[2.0]], np.eye(1), [[1.0]]) == \
        pytest.approx(np.sqrt(1.0 / 5.0))
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), np.eye(2))


def test_relative_error_orthogonal_invariance():
    rng = np.random.default_rng(0)
    n = 5
    E, A = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    Et, At = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    U = scipy.linalg.qr(rng.standard_normal((n, n)))[0]
    v1 = relative_error(E, A, Et, At)
    v2 = relative_error(U.T @ E @ U, U.T @ A @ U, U.T @ Et @ U, U.T @ At @ U)
    assert v2 == pytest.approx(v1, rel=1e-12)


def test_run_table_empty():
    assert run_table([]) == []


def test_run_table_deterministic_and_traces(tmp_path):
    insts = [BenchInstance(name="tiny", pair=MatrixPair(np.eye(2), np.eye(2) * 0.5),
                           region=rg.hurwitz(), algorithm="fgm",
                           budget_s=60.0, max_iters=50)]
    rows1 = run_table(insts, out_dir=str(tmp_path / "a"))
    rows2 = run_table(insts, out_dir=str(tmp_path / "b"))
    assert rows1[0]["error"] == ""
    assert rows1[0]["relative_error_pct"] == rows2[0]["relative_error_pct"]
    assert rows1[0]["objective"] == rows2[0]["objective"]
    trace = read_trace(rows1[0]["trace"])
    objs = [r[1] for r in trace]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
    assert os.path.exists(tmp_path / "a" / "results.csv")
    assert os.path.exists(tmp_path / "a" / "results.json")


def test_run_table_records_failures_and_continues(tmp_path):
    bad = BenchInstance(name="bad", pair=MatrixPair(np.eye(2), np.eye(2)),
                        region=rg.intersect(rg.disk(-3.0, 1.0), rg.disk(3.0, 1.0)),
                        algorithm="bcd", budget_s=1.0)
    good = BenchInstance(name="good", pair=MatrixPair(np.eye(2), -np.eye(2)),
                         region=rg.hurwitz(), algorithm="fgm", budget_s=2.0)
    rows = run_table([bad, good], out_dir=str(tmp_path))
    assert rows[0]["error"] != ""
    assert rows[1]["error"] == ""
    assert rows[1]["admissible"]


def test_run_table_keeps_input_order_and_algorithms():
    insts = [BenchInstance(name=f"i{k}", pair=MatrixPair(np.eye(2), 0.4 * np.eye(2)),
                           region=rg.hurwitz(), algorithm="fgm",
                           budget_s=30.0, max_iters=40) for k in range(3)]
    insts.append(BenchInstance(name="i3", pair=grcar(6, 1), region=rg.schur(),
                               algorithm="bcd", budget_s=60.0, max_iters=3))
    rows = run_table(insts)
    assert [r["instance"] for r in rows] == ["i0", "i1", "i2", "i3"]
    assert [r["algorithm"] for r in rows] == ["fgm", "fgm", "fgm", "bcd"]
    assert all(r["error"] == "" for r in rows)


# Eigenvalues -0.5 +- 2i: in the left half-plane, outside disk(-3, 1).
_DISK_CASE = {"name": "disk", "region": {"kind": "disk", "q": -3.0, "r": 1.0},
              "generator": {"kind": "pair", "E": [[1.0, 0.0], [0.0, 1.0]],
                            "A": [[-0.5, 2.0], [-2.0, -0.5]]},
              "budget_s": 60.0, "max_iters": 3}


def test_run_table_refuses_fgm_outside_hurwitz():
    """fgm never reports a verdict for a region it did not solve for."""
    inst = BenchInstance.from_dict({**_DISK_CASE, "algorithm": "fgm"})
    assert not admissibility_check(inst.pair, inst.region).admissible
    row, = run_table([inst])
    assert row["admissible"] is False
    assert row["algorithm"] == "fgm"
    assert row["error"].startswith("ValueError") and "--algo bcd" in row["error"]


def test_instance_without_algorithm_runs_bcd():
    inst = BenchInstance.from_dict(_DISK_CASE)
    assert inst.algorithm == "auto" and inst.max_iters == 3
    row, = run_table([inst])
    assert row["error"] == "" and row["algorithm"] == "bcd"
    res = _solve(inst.pair, inst.region, inst.algorithm, inst.mu,
                 inst.budget_s, inst.max_iters, inst.seed)
    assert res.objective == row["objective"]
    assert row["admissible"] == admissibility_check(res.pair, inst.region).admissible


def test_instance_from_dict_roundtrip():
    obj = {"name": "g", "generator": {"kind": "grcar", "n": 6, "k": 2},
           "region": {"kind": "left_half_plane", "k": 0.0},
           "algorithm": "fgm", "budget_s": 3.0, "seed": 5}
    inst = BenchInstance.from_dict(obj)
    np.testing.assert_allclose(inst.pair.A, grcar(6, 2).A)
    assert inst.budget_s == 3.0 and inst.seed == 5
    with pytest.raises(ValueError):
        BenchInstance.from_dict({"name": "x", "generator": {"kind": "nope"}})
    inst = BenchInstance.from_dict({"name": "m", "generator": {"kind": "msd", "n": 3, "eps": 0.05}})
    expected = msd(3, 0.05)[0]
    assert np.array_equal(inst.pair.E, expected.E) and np.array_equal(inst.pair.A, expected.A)
    inst = BenchInstance.from_dict({"name": "s", "generator": {"kind": "near_schur", "n": 4,
                                                               "eps": 0.1}, "seed": 7})
    expected = near_schur(4, 0.1, 7)
    assert np.array_equal(inst.pair.E, expected.E) and np.array_equal(inst.pair.A, expected.A)
    for gen in ({"kind": "msd", "n": 0}, {"kind": "msd", "n": 3, "eps": -0.1},
                {"kind": "near_schur", "n": 0}):
        with pytest.raises(ValueError):
            BenchInstance.from_dict({"name": "x", "generator": gen})


def test_region_plot_data_disk_boundary(tmp_path):
    files = region_plot_data(rg.schur(), [MatrixPair(np.eye(2), -np.eye(2))],
                             bounds=(-1.6, 1.6, -1.3, 1.3), nx=49, ny=41,
                             out_dir=str(tmp_path))
    pts = np.loadtxt(files["boundary"], delimiter=",", skiprows=1)
    assert len(pts) > 50
    radii = np.hypot(pts[:, 0], pts[:, 1])
    np.testing.assert_allclose(radii, 1.0, atol=1e-5)
    eigs = np.loadtxt(files["eigenvalues_00"], delimiter=",", skiprows=1)
    np.testing.assert_allclose(eigs, [[-1.0, 0.0], [-1.0, 0.0]], atol=1e-12)


def test_region_plot_data_composite_in_box(tmp_path):
    region = rg.intersect(rg.vertical_strip(-5.0, 5.0), rg.horizontal_strip(3.0),
                          rg.left_parabola(6.0, 1.0), rg.right_parabola(-6.0, 1.0))
    files = region_plot_data(region, [], bounds=(-6.0, 6.0, -4.0, 4.0),
                             nx=61, ny=41, out_dir=str(tmp_path))
    pts = np.loadtxt(files["boundary"], delimiter=",", skiprows=1)
    assert len(pts) > 0
    assert (np.abs(pts[:, 0]) <= 5.0 + 1e-5).all()
    assert (np.abs(pts[:, 1]) <= 3.0 + 1e-5).all()
