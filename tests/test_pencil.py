import json

import numpy as np
import pytest
import scipy.linalg

from omegapair import regions as rg
from omegapair.dh import DhParam, realize, skew, sym
from omegapair.pencil import (MatrixPair, admissibility_check, eigenvalue_parts,
                              load_pair, regularity_check, save_pair, spectrum)

from _oracles import random_well_conditioned


def test_spectrum_standard_pair():
    rep = spectrum(MatrixPair(np.eye(2), np.diag([-1.0, -2.0])))
    np.testing.assert_allclose(sorted(rep.finite_eigenvalues.real), [-2.0, -1.0])
    assert rep.num_infinite == 0
    assert rep.is_regular and rep.is_impulse_free


def test_spectrum_singular_E():
    rep = spectrum(MatrixPair(np.diag([1.0, 0.0]), np.eye(2)))
    np.testing.assert_allclose(rep.finite_eigenvalues, [1.0])
    assert rep.num_infinite == 1
    assert rep.rank_E == 1
    assert rep.is_impulse_free


def test_spectrum_singular_pencil():
    rep = spectrum(MatrixPair(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    assert not rep.is_regular
    assert not rep.is_impulse_free


def test_spectrum_zero_E():
    rep = spectrum(MatrixPair(np.zeros((2, 2)), -np.eye(2)))
    assert rep.num_finite == 0
    assert rep.num_infinite == 2
    assert rep.rank_E == 0
    assert rep.is_regular and rep.is_impulse_free


def test_regularity_witnesses():
    ok, s = regularity_check(MatrixPair(np.eye(3), np.diag([1.0, 2.0, 3.0])))
    assert ok and s is not None
    ok, _ = regularity_check(MatrixPair(np.zeros((2, 2)), np.eye(2)))
    assert ok
    ok, _ = regularity_check(MatrixPair(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    assert not ok


def test_eigenvector_residuals_small_on_random_regular_pairs():
    rng = np.random.default_rng(10)
    for n in (3, 6, 12):
        for _ in range(5):
            E = random_well_conditioned(n, rng)
            A = rng.standard_normal((n, n))
            rep = spectrum(MatrixPair(E, A))
            assert rep.is_regular
            scale = np.linalg.norm(E, 2) + np.linalg.norm(A, 2)
            for lam, res, res_l in zip(rep.finite_eigenvalues, rep.residuals,
                                       rep.residuals_left):
                bound = 1e-8 * (np.linalg.norm(E, 2)
                                + abs(lam) * np.linalg.norm(A, 2) + scale)
                assert res <= bound
                assert res_l <= bound


def test_dh_pairs_with_definite_R_are_admissible():
    rng = np.random.default_rng(11)
    hw = rg.hurwitz()
    for _ in range(25):
        n = int(rng.integers(2, 8))
        T = sym(rng.standard_normal((n, n)))
        T = T @ T.T + 0.2 * np.eye(n)
        J = skew(rng.standard_normal((n, n)))
        R = sym(rng.standard_normal((n, n)))
        R = R @ R.T + 0.2 * np.eye(n)
        Q = random_well_conditioned(n, rng)
        pair = realize(DhParam(T, J, R, Q))
        rep = spectrum(pair)
        assert rep.is_regular and rep.is_impulse_free
        assert all(lam.real < 0 for lam in rep.finite_eigenvalues)
        assert admissibility_check(pair, hw).admissible


def test_complex_eigenvalues_come_in_conjugate_pairs():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = 6
        rep = spectrum(MatrixPair(random_well_conditioned(n, rng),
                                  rng.standard_normal((n, n))))
        lams = [lam for lam in rep.finite_eigenvalues if abs(lam.imag) > 1e-9]
        for lam in lams:
            assert any(abs(lam - np.conj(o)) < 1e-6 * (1 + abs(lam))
                       for o in lams)


def test_admissibility_examples():
    hw = rg.hurwitz()
    assert admissibility_check(MatrixPair(np.eye(2), -np.eye(2)), hw).admissible
    v = admissibility_check(MatrixPair(np.eye(2), np.eye(2)), hw)
    assert not v.admissible and any("outside" in r for r in v.reasons)
    v2 = admissibility_check(MatrixPair(np.diag([1.0, 0.0]), np.eye(2)), hw)
    assert not v2.admissible
    assert v2.spectrum.is_impulse_free


def test_admissibility_does_not_depend_on_region_scale():
    pair = MatrixPair(np.eye(2), np.diag([-1.0, 1.0]))
    tiny = rg.LmiRegion(np.zeros((1, 1)), [[3e-61]])  # the open left half-plane
    assert not admissibility_check(pair, tiny).admissible
    assert not admissibility_check(pair, rg.hurwitz()).admissible
    assert admissibility_check(MatrixPair(np.eye(2), -np.eye(2)), tiny).admissible
    empty = rg.LmiRegion(np.zeros((1, 1)), np.zeros((1, 1)))
    v = admissibility_check(MatrixPair(np.eye(2), -np.eye(2)), empty)
    assert not v.admissible and v.worst_margin == -np.inf


def test_eigenvalue_parts_on_left_eigenvectors():
    E = Q = np.eye(2)
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    R = np.eye(2)
    w, vl = scipy.linalg.eig(J - R, left=True, right=False)
    for i in range(2):
        re, im = eigenvalue_parts(E, J, R, Q, vl[:, i])
        assert re == pytest.approx(w[i].real, abs=1e-12)
        assert im == pytest.approx(w[i].imag, abs=1e-12)


def test_eigenvalue_parts_simple_and_scale_invariant():
    n = 3
    E = Q = np.eye(n)
    x = np.array([1.0, -2.0, 0.5])
    re, im = eigenvalue_parts(E, np.zeros((n, n)), 3.0 * np.eye(n), Q, x)
    assert re == pytest.approx(-3.0) and im == pytest.approx(0.0)
    re5, im5 = eigenvalue_parts(E, np.zeros((n, n)), 3.0 * np.eye(n), Q, 5 * x)
    assert re5 == pytest.approx(re) and im5 == pytest.approx(im)


def test_eigenvalue_parts_reproduces_spectrum_of_structured_pairs():
    rng = np.random.default_rng(13)
    for n in (4, 10, 20):
        T = sym(rng.standard_normal((n, n)))
        T = T @ T.T + 0.3 * np.eye(n)
        J = skew(rng.standard_normal((n, n)))
        R = sym(rng.standard_normal((n, n)))
        R = R @ R.T + 0.3 * np.eye(n)
        Q = random_well_conditioned(n, rng)
        E = T @ Q
        A = (J - R) @ Q
        w, vl = scipy.linalg.eig(A, E, left=True, right=False)
        for i in range(n):
            re, im = eigenvalue_parts(E, J, R, Q, vl[:, i])
            err = abs(complex(re, im) - w[i]) / (1 + abs(w[i]))
            assert err <= 1e-8


def test_eigenvalue_parts_errors():
    with pytest.raises(np.linalg.LinAlgError):
        eigenvalue_parts(np.eye(2), np.zeros((2, 2)), np.eye(2),
                         np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="regularity"):
        # E with x in its left kernel makes the denominator vanish
        E = np.diag([0.0, 1.0])
        eigenvalue_parts(E, np.zeros((2, 2)), np.eye(2), np.eye(2),
                         np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        eigenvalue_parts(np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2),
                         np.zeros(2))


def test_pair_file_roundtrip(tmp_path):
    pair = MatrixPair(np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    path = tmp_path / "pair.json"
    save_pair(path, pair)
    loaded = load_pair(path)
    np.testing.assert_allclose(loaded.E, pair.E)
    np.testing.assert_allclose(loaded.A, pair.A)

    csv = tmp_path / "pair.csv"
    csv.write_text("1.0,0.0\n0.0,2.0\n0.0,1.0\n-1.0,0.0\n")
    loaded2 = load_pair(csv)
    np.testing.assert_allclose(loaded2.E, pair.E)
    np.testing.assert_allclose(loaded2.A, pair.A)


def test_pair_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"E": [[1.0]]}))
    with pytest.raises(ValueError, match="missing"):
        load_pair(bad)
    badcsv = tmp_path / "bad.csv"
    badcsv.write_text("1.0,0.0\n0.0,2.0\n0.0,1.0\n")
    with pytest.raises(ValueError, match="stacked"):
        load_pair(badcsv)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MatrixPair(np.eye(2), np.eye(3))
