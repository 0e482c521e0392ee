import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omegapair import regions as rg
from omegapair.bench import msd
from omegapair.dh import (Certificate, DhParam, certify_admissibility,
                          dh_from_certificate, dh_from_dict, dh_to_dict,
                          project_psd, realize, region_lmi, region_lmi_pair,
                          skew, sym, verify_certificate)
from omegapair.pencil import MatrixPair, admissibility_check, spectrum
from omegapair.result import finalize_solution, relative_error

from _oracles import (certificate_conditions, pencil_admissible, random_well_conditioned,
                      sample_feasible_tjr, standard_primitives)


def test_realize_identity_examples():
    d = DhParam(np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2))
    pair = realize(d)
    np.testing.assert_allclose(pair.E, np.eye(2))
    np.testing.assert_allclose(pair.A, -np.eye(2))

    d0 = DhParam(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), np.eye(2))
    pair0 = realize(d0)
    rep = spectrum(pair0)
    assert rep.is_regular and rep.num_finite == 0 and rep.rank_E == 0
    assert rep.is_impulse_free


def test_realize_msd_block_product():
    pair, d = msd(3, 0.2)
    np.testing.assert_allclose(pair.A, (d.J - d.R) @ d.Q, atol=1e-12)
    np.testing.assert_allclose(realize(d).A, pair.A, atol=1e-12)
    np.testing.assert_allclose(realize(d).E, pair.E, atol=1e-10)


def test_realize_rejects_singular_Q():
    d = DhParam(np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        realize(d)


def _finalize(E, A, d, region, trace=None):
    return finalize_solution(E, A, d, region, 1.0, algorithm="test", iterations=0,
                             stop_reason="test", trace=[] if trace is None else trace,
                             t0=time.perf_counter())


def test_finalize_flags_singular_Q_instead_of_raising():
    rng = np.random.default_rng(2)
    Q = random_well_conditioned(3, rng)
    Q[:, 1] = 0.0
    d = DhParam(np.eye(3), skew(rng.standard_normal((3, 3))), np.eye(3), Q)
    E, A = np.eye(3), rng.standard_normal((3, 3))
    res = _finalize(E, A, d, rg.schur())
    verdict, pair, obj, rel = res.admissibility, res.pair, res.objective, res.relative_error
    assert not verdict.admissible and not res.shifted
    assert not res.admissible
    assert len(verdict.reasons) == 1 and "reciprocal condition" in verdict.reasons[0]
    assert res.dh is d
    np.testing.assert_array_equal(pair.E, d.T @ Q)
    np.testing.assert_array_equal(pair.A, (d.J - d.R) @ Q)
    assert obj == pytest.approx(np.sum((A - pair.A) ** 2) + np.sum((E - pair.E) ** 2))
    assert rel == pytest.approx(np.sqrt(obj / (np.sum(A * A) + np.sum(E * E))))


def test_finalize_lifts_a_boundary_quadruple():
    # T has an eigenvalue at -1e-15 and R one at 0: the realized pencil has
    # a real eigenvalue near +3e7, and the lifted one a pair near -1 +- 1e6 i
    d = DhParam(np.diag([1.0, -1e-15]), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                np.diag([1.0, 0.0]), np.eye(2))
    assert not admissibility_check(realize(d), rg.hurwitz(), margin_tol=1e-6).admissible
    E, A = np.eye(2), -np.eye(2)
    trace = [(0.0, 9.0, 2.0)]
    res = _finalize(E, A, d, rg.hurwitz(), trace)
    assert res.admissible and res.shifted
    assert res.admissibility.admissible
    assert np.linalg.eigvalsh(res.dh.T)[0] > 0 and np.linalg.eigvalsh(res.dh.R)[0] > 0
    assert np.array_equal(res.dh.J, d.J) and np.array_equal(res.dh.Q, d.Q)
    unlifted = realize(d)
    assert np.abs(res.pair.E - unlifted.E).max() <= 2e-12
    assert np.abs(res.pair.A - unlifted.A).max() <= 2e-12
    assert res.objective == pytest.approx(np.sum((A - res.pair.A) ** 2)
                                          + np.sum((E - res.pair.E) ** 2))
    assert res.relative_error == pytest.approx(
        np.sqrt(res.objective / (np.sum(A * A) + np.sum(E * E))))
    # the closing trace row belongs to the quadruple the solver handed over
    assert res.trace is trace and len(trace) == 2
    assert trace[1][1] == np.sum((A - unlifted.A) ** 2) + np.sum((E - unlifted.E) ** 2)
    assert trace[1][2] == relative_error(E, A, unlifted.E, unlifted.A)
    assert (res.iterations, res.stop_reason, res.algorithm) == (0, "test", "test")
    assert res.converged


def test_finalize_returns_the_unlifted_quadruple_when_the_lift_fails():
    # the same quadruple in the unit disk: the lifted eigenvalues near
    # -1 +- 1e6 i are far outside, so the result comes back flagged as is
    d = DhParam(np.diag([1.0, -1e-15]), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                np.diag([1.0, 0.0]), np.eye(2))
    res = _finalize(np.eye(2), -np.eye(2), d, rg.schur())
    assert not res.admissible and not res.shifted and res.dh is d
    assert res.admissibility.reasons
    np.testing.assert_array_equal(res.pair.E, realize(d).E)
    np.testing.assert_array_equal(res.pair.A, realize(d).A)


_PRIMITIVES = standard_primitives()


@st.composite
def _regions(draw):
    """A standard primitive, or a raw (B, C) of size 1 or 2 with small integer entries."""
    if draw(st.booleans()):
        return rg.from_primitive(draw(st.sampled_from(_PRIMITIVES)))
    s = draw(st.integers(1, 2))
    entries = st.integers(-2, 2).map(float)
    B = np.array(draw(st.lists(entries, min_size=s * s, max_size=s * s))).reshape(s, s)
    C = np.array(draw(st.lists(entries, min_size=s * s, max_size=s * s))).reshape(s, s)
    return rg.LmiRegion(B + B.T, C)


def _psd_of_rank(rng, n, rank, nudge):
    """G G^T with G of size n x rank, plus a symmetric perturbation of size nudge."""
    G = rng.standard_normal((n, rank))
    return G @ G.T + nudge * sym(rng.standard_normal((n, n)))


@st.composite
def _quadruples(draw):
    """T and R PSD of any rank (singular included), exact, nudged by roundoff-sized
    amounts either way, or clearly indefinite; J of three sizes; Q well conditioned."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nudges = st.sampled_from([0.0, 1e-16, 1e-15, 1e-13, 1e-10, 1.0])
    T = _psd_of_rank(rng, n, draw(st.integers(0, n)), draw(nudges))
    R = _psd_of_rank(rng, n, draw(st.integers(0, n)), draw(nudges))
    J = draw(st.sampled_from([0.0, 1.0, 10.0])) * skew(rng.standard_normal((n, n)))
    return DhParam(T, J, R, random_well_conditioned(n, rng))


@settings(max_examples=400, deadline=None)
@given(_regions(), _quadruples())
def test_finalize_never_flags_admissible_against_an_independent_check(region, d):
    """Criterion 9 for the finish, lift or no lift."""
    res = _finalize(np.eye(d.n), -np.eye(d.n), d, region)
    assert res.admissible == res.admissibility.admissible
    assert not res.shifted or res.admissible
    if res.admissible:
        assert pencil_admissible(res.pair.E, res.pair.A, region.B, region.C), (
            res.shifted, res.pair)


def test_dhparam_symmetrizes_on_construction():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3))
    d = DhParam(M, M, M, M)
    np.testing.assert_allclose(d.T, d.T.T)
    np.testing.assert_allclose(d.R, d.R.T)
    np.testing.assert_allclose(d.J, -d.J.T)
    # realized left product is symmetric whenever T is
    QE = d.Q.T @ (d.T @ d.Q)
    np.testing.assert_allclose(QE, QE.T, atol=1e-12)


def test_region_lmi_hurwitz_and_disk():
    hw = rg.hurwitz()
    rng = np.random.default_rng(1)
    R = sym(rng.standard_normal((3, 3)))
    np.testing.assert_allclose(region_lmi(hw, np.eye(3), np.zeros((3, 3)), R),
                               -2.0 * R, atol=1e-14)
    np.testing.assert_allclose(
        region_lmi(rg.schur(), np.eye(3), np.zeros((3, 3)), np.zeros((3, 3))),
        -np.eye(6), atol=1e-14)


def test_region_lmi_lambda_max_is_convex():
    rng = np.random.default_rng(2)
    reg = rg.from_primitive(rg.disk(-1.0, 2.0))
    n = 3

    def lam_max(t):
        return np.linalg.eigvalsh(region_lmi(reg, *t))[-1]

    for _ in range(20):
        t1 = (sym(rng.standard_normal((n, n))), skew(rng.standard_normal((n, n))),
              sym(rng.standard_normal((n, n))))
        t2 = (sym(rng.standard_normal((n, n))), skew(rng.standard_normal((n, n))),
              sym(rng.standard_normal((n, n))))
        mid = tuple((a + b) / 2 for a, b in zip(t1, t2))
        assert lam_max(mid) <= (lam_max(t1) + lam_max(t2)) / 2 + 1e-10


def test_region_lmi_pair_congruence_identity():
    rng = np.random.default_rng(3)
    n = 4
    for p in standard_primitives():
        reg = rg.from_primitive(p)
        Q = random_well_conditioned(n, rng)
        T = sym(rng.standard_normal((n, n)))
        J = skew(rng.standard_normal((n, n)))
        R = sym(rng.standard_normal((n, n)))
        E = T @ Q  # Q^T E symmetric by construction
        M1 = region_lmi_pair(reg, E, J, R, Q)
        IQ = np.kron(np.eye(reg.size), Q)
        M2 = IQ.T @ region_lmi(reg, np.linalg.solve(Q.T, E.T).T, J, R) @ IQ
        np.testing.assert_allclose(M1, M2, atol=1e-8 * (1 + np.abs(M1).max()))


def test_region_lmi_pair_reductions():
    rng = np.random.default_rng(4)
    n = 4
    reg = rg.from_primitive(rg.disk(0.0, 2.0))
    E = sym(rng.standard_normal((n, n)))
    J = skew(rng.standard_normal((n, n)))
    R = sym(rng.standard_normal((n, n)))
    np.testing.assert_allclose(region_lmi_pair(reg, E, J, R, np.eye(n)),
                               region_lmi(reg, E, J, R), atol=1e-13)
    Q = random_well_conditioned(n, rng)
    np.testing.assert_allclose(region_lmi_pair(rg.hurwitz(), E, J, R, Q),
                               -2.0 * Q.T @ R @ Q, atol=1e-12)


def test_certify_admissibility_basic():
    hw = rg.hurwitz()
    v = certify_admissibility(hw, np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2))
    assert v.certified
    assert v.admissibility is not None and v.admissibility.admissible

    # indefinite R is rejected even though the spectrum happens to be stable
    R = np.diag([1.0, -0.25])
    A = -np.eye(2) @ np.eye(2) - R @ np.eye(2)  # spectrum of (J-R)Q below
    v2 = certify_admissibility(hw, np.eye(2), np.zeros((2, 2)), R + 1.5 * np.eye(2),
                               np.eye(2))
    assert v2.certified  # R + 1.5 I is PD
    v3 = certify_admissibility(hw, np.eye(2), np.zeros((2, 2)), R, np.eye(2))
    assert not v3.certified and "R positive definite" in v3.failed()
    assert spectrum(MatrixPair(np.eye(2), -R)).finite_eigenvalues.real.max() < 0 \
        or True  # sufficiency only: no claim about the spectrum


def test_certified_random_quadruples_are_admissible():
    """Certification implies admissibility on random scaled quadruples."""
    rng = np.random.default_rng(5)
    hw = rg.hurwitz()
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        T = sym(rng.standard_normal((n, n)))
        T = T @ T.T + 0.1 * np.eye(n)
        J = skew(rng.standard_normal((n, n)))
        R = sym(rng.standard_normal((n, n)))
        R = R @ R.T + 0.1 * np.eye(n)
        Q = random_well_conditioned(n, rng)
        E = T @ Q
        v = certify_admissibility(hw, E, J, R, Q)
        if not v.certified:
            continue
        checked += 1
        assert v.admissibility.admissible
    assert checked >= 150


def test_scaled_quadruple_certification_example():
    rng = np.random.default_rng(6)
    n = 4
    p = rg.disk(-3.0, 2.0)
    reg = rg.from_primitive(p)
    T, J, R = sample_feasible_tjr(p, n, rng, psd_R=True, margin=1e-3)
    Q = random_well_conditioned(n, rng)
    E = T @ Q
    assert np.linalg.eigvalsh(region_lmi_pair(reg, E, J, R, Q))[-1] < 0
    v = certify_admissibility(reg, E, J, R, Q)
    assert v.certified and v.admissibility.admissible


def test_dh_from_certificate():
    A = -np.eye(3)
    J, R, Q = dh_from_certificate(A, np.eye(3))
    np.testing.assert_allclose(J, 0.0, atol=1e-15)
    np.testing.assert_allclose(R, np.eye(3))
    np.testing.assert_allclose(Q, np.eye(3))

    rng = np.random.default_rng(7)
    Ar = rng.standard_normal((4, 4))
    J, R, Q = dh_from_certificate(Ar, np.eye(4))
    np.testing.assert_allclose(J, skew(Ar), atol=1e-14)
    np.testing.assert_allclose(R, -sym(Ar), atol=1e-14)

    for _ in range(20):
        X = random_well_conditioned(4, rng)
        J, R, Q = dh_from_certificate(Ar, X)
        assert np.linalg.norm((J - R) @ Q - Ar) <= 1e-12 * np.linalg.norm(Ar)

    with pytest.raises(np.linalg.LinAlgError):
        dh_from_certificate(Ar, np.zeros((4, 4)))


def test_verify_certificate_X():
    hw = rg.hurwitz()
    c = Certificate("X", X=np.eye(2))
    assert verify_certificate(c, MatrixPair(np.eye(2), -np.eye(2)), hw).certified
    assert not verify_certificate(c, MatrixPair(np.eye(2), np.eye(2)), hw).certified


def test_verify_certificate_PS():
    strip = rg.from_primitive(rg.vertical_strip(-3.0, -0.5))
    c = Certificate("PS", P=np.eye(2), S=np.eye(2))
    v = verify_certificate(c, MatrixPair(np.eye(2), -np.eye(2)), strip)
    assert v.certified, [(cc.name, cc.margin) for cc in v.conditions if not cc.ok]
    # an unstable pair must fail at least one condition
    v2 = verify_certificate(c, MatrixPair(np.eye(2), np.eye(2)), strip)
    assert not v2.certified


def test_verify_certificate_S_requires_dh_and_passes_on_valid_data():
    strip = rg.from_primitive(rg.vertical_strip(-3.0, -0.5))
    d = DhParam(np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2))
    c = Certificate("S", S=0.05 * np.eye(2))
    with pytest.raises(ValueError):
        verify_certificate(c, realize(d), strip)
    v = verify_certificate(c, realize(d), strip, dh=d)
    assert v.certified, [(cc.name, cc.margin) for cc in v.conditions if not cc.ok]


def _certificate_cases():
    """Twelve random quadruples per region, n = 2..5, R definite and indefinite,
    with E = T Q and A = (J - R) Q, and each certificate kind's matrices."""
    rng = np.random.default_rng(12)
    regions = [rg.hurwitz(), rg.schur(), rg.from_primitive(rg.vertical_strip(-3.0, -0.5)),
               rg.from_primitive(rg.disk(-1.0, 2.0)),
               rg.intersect(rg.vertical_strip(-5.0, 5.0), rg.horizontal_strip(3.0),
                            rg.left_parabola(2.0, 1.0))]
    for region in regions:
        for i in range(12):
            n = 2 + i % 4
            G = rng.standard_normal((n, n))
            T = G @ G.T + 0.1 * np.eye(n)
            J = skew(rng.standard_normal((n, n)))
            R = sym(rng.standard_normal((n, n)))
            R = R @ R.T + 0.1 * np.eye(n) if i % 2 == 0 else R
            Q = random_well_conditioned(n, rng)
            E, A = T @ Q, (J - R) @ Q
            Qinv = np.linalg.inv(Q)
            yield region, E, A, J, R, Q, {
                "X": (Q, random_well_conditioned(n, rng)),
                "PS": (Qinv, 0.05 * Qinv), "S": 0.05 * Q}


def test_certificate_conditions_match_oracle():
    """Every condition of certify_admissibility and of verify_certificate's three
    kinds, by name and flag, equals an independent evaluation; margins agree to
    1e-12 relative."""
    verdicts = rows = 0
    for region, E, A, J, R, Q, certs in _certificate_cases():
        B, C = region.B, region.C
        pair = MatrixPair(E, A)
        X1, X2 = certs["X"]
        P, S = certs["PS"]
        checks = [
            (certify_admissibility(region, E, J, R, Q),
             certificate_conditions("quadruple", B, C, E, J=J, R=R, Q=Q)),
            (verify_certificate(Certificate("S", S=certs["S"]), pair, region,
                                dh=DhParam(T=E @ np.linalg.inv(Q), J=J, R=R, Q=Q)),
             certificate_conditions("S", B, C, E, J=J, R=R, Q=Q, S=certs["S"])),
            (verify_certificate(Certificate("PS", P=P, S=S), pair, region),
             certificate_conditions("PS", B, C, E, A=A, P=P, S=S))]
        checks += [(verify_certificate(Certificate("X", X=X), pair, region),
                    certificate_conditions("X", B, C, E, A=A, X=X)) for X in (X1, X2)]
        for verdict, expected in checks:
            assert [(c.name, c.ok) for c in verdict.conditions] == \
                [(name, ok) for name, ok, _ in expected]
            assert verdict.certified == all(ok for _, ok, _ in expected)
            for c, (_, _, margin) in zip(verdict.conditions, expected):
                assert abs(c.margin - margin) <= 1e-12 * max(abs(c.margin), abs(margin)), \
                    (c.name, c.margin, margin)
            verdicts += 1
            rows += len(expected)
    assert (verdicts, rows) == (300, 1620)


def test_certificate_construction_validation():
    with pytest.raises(ValueError):
        Certificate("X")
    with pytest.raises(ValueError):
        Certificate("PS", P=np.eye(2))
    with pytest.raises(ValueError):
        Certificate("nope", X=np.eye(2))


def test_uniform_region_converse_via_Q_certificate():
    """Admissible realized pairs with definite R admit X = Q as a
    certificate for the half-plane region."""
    rng = np.random.default_rng(8)
    hw = rg.hurwitz()
    count = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        T = sym(rng.standard_normal((n, n)))
        T = T @ T.T + 0.2 * np.eye(n)
        J = skew(rng.standard_normal((n, n)))
        R = sym(rng.standard_normal((n, n)))
        R = R @ R.T + 0.2 * np.eye(n)
        Q = random_well_conditioned(n, rng)
        pair = realize(DhParam(T, J, R, Q))
        assert admissibility_check(pair, hw).admissible
        v = verify_certificate(Certificate("X", X=Q), pair, hw)
        assert v.certified
        count += 1
    assert count == 50


def test_table_block_feasibility_implies_containment():
    """For every primitive, feasible (T > 0, block > 0) quadruples realize
    pairs whose finite spectrum lies in the region."""
    rng = np.random.default_rng(9)
    n = 4
    for p in standard_primitives():
        reg = rg.from_primitive(p)
        for _ in range(100):
            out = sample_feasible_tjr(p, n, rng)
            assert out is not None
            T, J, R = out
            Q = random_well_conditioned(n, rng)
            pair = realize(DhParam(T, J, R, Q))
            rep = spectrum(pair)
            assert rep.is_regular
            for lam in rep.finite_eigenvalues:
                assert rg.membership(reg, lam).margin >= -1e-8, (p.kind, lam)


def test_project_psd_matches_clipping_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        S = sym(M)
        w, V = np.linalg.eigh(S)
        oracle = V @ np.diag(np.maximum(w, 0.0)) @ V.T
        np.testing.assert_allclose(project_psd(M), oracle, atol=1e-12)


def test_dh_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    d = DhParam(sym(rng.standard_normal((3, 3))), skew(rng.standard_normal((3, 3))),
                sym(rng.standard_normal((3, 3))), random_well_conditioned(3, rng))
    obj = dh_to_dict(d)
    assert obj["schema_version"] == 1
    d2 = dh_from_dict(obj)
    for name in ("T", "J", "R", "Q"):
        np.testing.assert_allclose(getattr(d2, name), getattr(d, name))
    with pytest.raises(ValueError):
        dh_from_dict({**obj, "schema_version": 99})


def test_msd_zero_eps_certifiable_after_shift():
    pair, d = msd(4, 0.0)
    # R = diag(D, 0) is singular; a visible shift makes the quadruple
    # certifiable at a matching tolerance
    v = certify_admissibility(rg.hurwitz(), pair.E, d.J, d.R + 1e-6 * np.eye(d.n),
                              d.Q, tol=1e-10)
    assert v.certified, [(c.name, c.margin) for c in v.conditions if not c.ok]
