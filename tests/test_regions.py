import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import omegapair
from omegapair import regions as rg
from omegapair.dh import region_lmi, skew, sym

from _oracles import (TABLE_BLOCK_SCALE, geometric_membership, initial_scalar_interval,
                      lam_max_margin, random_primitives, stability_lmi_blocks,
                      standard_primitives)


def test_disk_matrices_match_reference():
    r = rg.from_primitive(rg.disk(0.0, 1.0))
    np.testing.assert_allclose(r.B, [[-1.0, 0.0], [0.0, -1.0]])
    np.testing.assert_allclose(r.C, [[0.0, 0.0], [-1.0, 0.0]])


def test_left_half_plane_matrices():
    r = rg.from_primitive(rg.left_half_plane(0.0))
    np.testing.assert_allclose(r.B, [[0.0]])
    np.testing.assert_allclose(r.C, [[1.0]])
    # f(z) = 2 Re(z)
    for z in (1 + 1j, -2.5, 0.3j):
        np.testing.assert_allclose(rg.characteristic_matrix(r, z)[0, 0],
                                   2 * z.real, atol=1e-14)


def test_region_sizes():
    assert rg.from_primitive(rg.left_half_plane(1.0)).size == 1
    assert rg.from_primitive(rg.right_half_plane(-1.0)).size == 1
    for p in standard_primitives():
        if p.kind not in ("left_half_plane", "right_half_plane"):
            assert rg.from_primitive(p).size == 2


def test_ellipsoid_with_equal_axes_behaves_like_disk():
    ell = rg.from_primitive(rg.ellipsoid(0.0, 1.0, 1.0))
    dsk = rg.from_primitive(rg.disk(0.0, 1.0))
    for x in np.linspace(-1.5, 1.5, 10):
        for y in np.linspace(-1.5, 1.5, 10):
            z = complex(x, y)
            assert rg.membership(ell, z).status == rg.membership(dsk, z).status


def test_invalid_parameters_raise_with_parameter_name():
    with pytest.raises(ValueError, match="r"):
        rg.disk(0.0, -1.0)
    with pytest.raises(ValueError, match="h"):
        rg.vertical_strip(2.0, 1.0)
    with pytest.raises(ValueError, match="theta"):
        rg.left_conic_sector(0.0, 2.0)
    with pytest.raises(ValueError, match="w"):
        rg.horizontal_strip(0.0)
    with pytest.raises(ValueError, match="c_p"):
        rg.left_parabola(1.0, 0.0)
    with pytest.raises(ValueError, match="a_h"):
        rg.right_hyperbola(-1.0, 1.0)


def test_characteristic_matrix_examples():
    dsk = rg.from_primitive(rg.disk(0.0, 1.0))
    np.testing.assert_allclose(rg.characteristic_matrix(dsk, 0.0),
                               [[-1.0, 0.0], [0.0, -1.0]])
    F = rg.characteristic_matrix(dsk, 2.0)
    np.testing.assert_allclose(F.real, [[-1.0, -2.0], [-2.0, -1.0]])
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(F)), [-3.0, 1.0])
    lhp = rg.from_primitive(rg.left_half_plane(0.0))
    np.testing.assert_allclose(rg.characteristic_matrix(lhp, -3 + 4j), [[-6.0]],
                               atol=1e-14)


def test_characteristic_matrix_is_hermitian():
    rng = np.random.default_rng(0)
    for p in standard_primitives():
        r = rg.from_primitive(p)
        for _ in range(50):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            F = rg.characteristic_matrix(r, z)
            np.testing.assert_allclose(F, F.conj().T, atol=1e-14)


def test_membership_examples():
    dsk = rg.from_primitive(rg.disk(0.0, 1.0))
    m = rg.membership(dsk, 0.0)
    assert m.status == "inside" and abs(m.margin - 1.0) < 1e-12
    assert rg.membership(dsk, 1.0).status == "boundary"
    assert rg.membership(dsk, 2.0).status == "outside"


def test_membership_is_scale_free_below_unit_scale():
    """A tiny multiple of (B, C) keeps its interior; scale >= 1 keeps -lambda_max."""
    tiny = rg.LmiRegion(np.zeros((1, 1)), [[3e-61]])  # the open left half-plane
    hw = rg.hurwitz()
    for z in (-1.0, 1.0, -2.0 + 5.0j, 0.5j):
        m, ref = rg.membership(tiny, z), rg.membership(hw, z)
        assert m.status == ref.status
        assert m.margin == pytest.approx(ref.margin, rel=1e-12)
    big = rg.LmiRegion(4.0 * hw.B, 4.0 * hw.C)
    assert big.scale == 4.0
    assert rg.membership(big, -1.0).margin == 8.0


def test_all_zero_region_is_empty():
    empty = rg.LmiRegion(np.zeros((2, 2)), np.zeros((2, 2)))
    for z in (0.0, -1.0, 1.0 + 1.0j):
        m = rg.membership(empty, z)
        assert m.status == "outside" and m.margin == -math.inf


def test_membership_margins_equal_per_point_oracle():
    """The stacked margins are the per-point oracle's, bit for bit, and
    `membership` reports the same margin point by point."""
    rng = np.random.default_rng(21)
    z = np.concatenate([4.0 * rng.standard_normal(40) + 4.0j * rng.standard_normal(40),
                        4.0 * rng.standard_normal(10), [0.0, 1.0, -1.0, 3.0j]])
    composite = rg.intersect(rg.vertical_strip(-5.0, 5.0), rg.horizontal_strip(3.0),
                             rg.left_parabola(6.0, 1.0), rg.right_parabola(-6.0, 1.0))
    raw = rg.LmiRegion([[-1.0, 0.3], [0.3, -2.0]], [[0.5, -0.2], [0.7, 0.1]])
    regions = [rg.from_primitive(p) for p in standard_primitives()]
    regions += [composite, raw, rg.LmiRegion(1e-3 * raw.B, 1e-3 * raw.C),
                rg.LmiRegion(np.zeros((2, 2)), np.zeros((2, 2)))]
    for r in regions:
        expected = np.array([lam_max_margin(r.B, r.C, zz) for zz in z])
        got = rg.membership_margins(r, z)
        assert np.array_equal(got, expected), r
        assert [rg.membership(r, zz).margin for zz in z] == expected.tolist()
        assert rg.membership_margins(r, []).shape == (0,)
    assert regions[-2].scale < 1.0


def test_membership_agrees_with_geometry():
    """The standard primitives and seeded random draws of every kind, whose
    apexes, centres and vertices take both signs."""
    rng = np.random.default_rng(1)
    for p in standard_primitives() + random_primitives(seed=11, draws=4):
        r = rg.from_primitive(p)
        for _ in range(1000):
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            m = rg.membership(r, z)
            if m.status == "boundary":
                continue
            assert (m.status == "inside") == geometric_membership(p, z), (p.kind, z)


def test_membership_symmetric_about_real_axis():
    rng = np.random.default_rng(2)
    for p in standard_primitives():
        r = rg.from_primitive(p)
        for _ in range(200):
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            a = rg.membership(r, z)
            b = rg.membership(r, np.conj(z))
            assert a.status == b.status
            assert abs(a.margin - b.margin) < 1e-12


def test_intersection_block_structure_and_membership():
    dsk = rg.from_primitive(rg.disk(0.0, 1.0))
    lhp = rg.from_primitive(rg.left_half_plane(0.0))
    inter = rg.intersect(dsk, lhp)
    assert inter.size == 3
    assert len(inter.primitives) == 2
    np.testing.assert_allclose(inter.B[:2, :2], dsk.B)
    np.testing.assert_allclose(inter.B[2:, 2:], lhp.B)
    np.testing.assert_allclose(inter.B[:2, 2:], 0.0)

    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        both = (rg.membership(dsk, z).status == "inside"
                and rg.membership(lhp, z).status == "inside")
        assert (rg.membership(inter, z).status == "inside") == both or \
            "boundary" in (rg.membership(dsk, z).status,
                           rg.membership(lhp, z).status,
                           rg.membership(inter, z).status)


def test_self_intersection_is_idempotent_on_membership():
    dsk = rg.from_primitive(rg.disk(-1.0, 2.0))
    twice = rg.intersect(dsk, dsk)
    for x in np.linspace(-4, 2, 13):
        for y in np.linspace(-3, 3, 11):
            z = complex(x, y)
            assert rg.membership(twice, z).status == rg.membership(dsk, z).status


def test_uniform_part_nonempty():
    assert rg.uniform_part_nonempty(rg.from_primitive(rg.left_half_plane(0.0)))
    assert not rg.uniform_part_nonempty(rg.from_primitive(rg.vertical_strip(-2.0, -1.0)))
    assert rg.uniform_part_nonempty(rg.from_primitive(rg.left_conic_sector(0.0, np.pi / 4)))


def test_stability_blocks_examples():
    n = 3
    rng = np.random.default_rng(4)
    T = sym(rng.standard_normal((n, n)))
    R = sym(rng.standard_normal((n, n)))
    J = skew(rng.standard_normal((n, n)))
    np.testing.assert_allclose(
        stability_lmi_blocks(rg.left_half_plane(2.0), T, J, R), 2.0 * T + R)

    blk = stability_lmi_blocks(rg.disk(0.0, 1.0), np.eye(2), np.zeros((2, 2)),
                               np.zeros((2, 2)))
    np.testing.assert_allclose(blk, np.eye(4))

    J2 = np.array([[0.0, 2.0], [-2.0, 0.0]])
    blk = stability_lmi_blocks(rg.horizontal_strip(1.0), np.eye(2), J2,
                               sym(rng.standard_normal((2, 2))))
    assert np.linalg.eigvalsh(blk)[0] == pytest.approx(-1.0)


def test_stability_blocks_are_linear():
    rng = np.random.default_rng(5)
    n = 3
    for p in standard_primitives():
        T1, T2 = (sym(rng.standard_normal((n, n))) for _ in range(2))
        R1, R2 = (sym(rng.standard_normal((n, n))) for _ in range(2))
        J1, J2 = (skew(rng.standard_normal((n, n))) for _ in range(2))
        lhs = stability_lmi_blocks(p, T1 + T2, J1 + J2, R1 + R2)
        rhs = (stability_lmi_blocks(p, T1, J1, R1)
               + stability_lmi_blocks(p, T2, J2, R2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kronecker_assembly_matches_stability_blocks_spectrally():
    """-(B x T + (C-C^T) x J - (C+C^T) x R) and the stability block agree
    up to the documented positive scale and a signed permutation."""
    rng = np.random.default_rng(6)
    n = 3
    for p in standard_primitives():
        r = rg.from_primitive(p)
        scale = TABLE_BLOCK_SCALE[p.kind]
        for _ in range(10):
            T = sym(rng.standard_normal((n, n)))
            J = skew(rng.standard_normal((n, n)))
            R = sym(rng.standard_normal((n, n)))
            e1 = np.sort(np.linalg.eigvalsh(-region_lmi(r, T, J, R)))
            e2 = np.sort(scale * np.linalg.eigvalsh(
                stability_lmi_blocks(p, T, J, R)))
            np.testing.assert_allclose(e1, e2, atol=1e-10)


def test_stability_blocks_dimension_mismatch():
    with pytest.raises(ValueError):
        region_lmi(rg.schur(), np.eye(3), np.zeros((2, 2)), np.eye(3))


def _composite():
    return rg.intersect(rg.vertical_strip(-5.0, 5.0), rg.horizontal_strip(3.0),
                        rg.left_parabola(6.0, 1.0), rg.right_parabola(-6.0, 1.0))


def test_real_section_matches_closed_form_intervals():
    """The (B, C) section, negated, is the table's scalar interval."""
    cases = [(rg.from_primitive(p), [p]) for p in standard_primitives()]
    cases.append((_composite(), list(_composite().primitives)))
    for region, prims in cases:
        lo = max(initial_scalar_interval(p)[0] for p in prims)
        hi = min(initial_scalar_interval(p)[1] for p in prims)
        got = rg.real_section(region)
        for a, b in ((-got[1], lo), (-got[0], hi)):
            if math.isinf(b):
                assert a == b, (prims, got)
            else:
                assert abs(a - b) <= 1e-12, (prims, got)


def test_empty_intersection_has_empty_section():
    assert rg.real_section(rg.intersect(rg.disk(-3.0, 1.0), rg.disk(3.0, 1.0))) is None


@st.composite
def _raw_regions(draw):
    s = draw(st.integers(1, 3))
    entries = st.integers(-3, 3).map(float)
    B = np.array(draw(st.lists(entries, min_size=s * s, max_size=s * s))).reshape(s, s)
    C = np.array(draw(st.lists(entries, min_size=s * s, max_size=s * s))).reshape(s, s)
    return rg.LmiRegion(B + B.T, C)


@settings(max_examples=300, deadline=None)
@given(_raw_regions())
def test_real_section_property_on_raw_regions(region):
    """A point of the section is inside, points past a finite end are not,
    and no real point outside the section is inside."""
    section = rg.real_section(region)
    grid = np.linspace(-10.0, 10.0, 81)
    if section is None:
        assert all(rg.membership(region, x).status != "inside" for x in grid)
        return
    lo, hi = section
    if math.isinf(lo) and math.isinf(hi):
        x = 0.0
    elif math.isinf(lo):
        x = hi - 1.0
    elif math.isinf(hi):
        x = lo + 1.0
    else:
        x = (lo + hi) / 2.0
    assert rg.membership(region, x).status == "inside", (section, x)
    for end, step in ((lo, -1.0), (hi, 1.0)):
        if not math.isinf(end):
            past = end + step * 1e-6 * (1.0 + abs(end))
            assert rg.membership(region, past).status != "inside", (section, past)
    for x in grid:
        if rg.membership(region, x).status == "inside":
            assert lo < x < hi, (section, x)


def test_connected_blocks():
    inter = rg.intersect(rg.schur(), rg.vertical_strip(-3.0, -1.0), rg.hurwitz())
    blocks = rg.connected_blocks(inter)
    assert [b.size for b in blocks] == [2, 1, 1, 1]
    np.testing.assert_array_equal(blocks[0].B, rg.schur().B)
    np.testing.assert_array_equal(blocks[0].C, rg.schur().C)
    # coupled indices need not be adjacent
    B = np.array([[-1.0, 0.0, 0.5], [0.0, -2.0, 0.0], [0.5, 0.0, -1.0]])
    C = np.diag([1.0, 1.0, 1.0])
    blocks = rg.connected_blocks(rg.LmiRegion(B, C))
    np.testing.assert_array_equal(blocks[0].B, [[-1.0, 0.5], [0.5, -1.0]])
    np.testing.assert_array_equal(blocks[1].B, [[-2.0]])


def test_region_json_roundtrip(tmp_path):
    spec = {"intersect": [{"kind": "disk", "q": 0.0, "r": 1.0},
                          {"kind": "left_half_plane", "k": 0.0}]}
    path = tmp_path / "region.json"
    path.write_text(json.dumps(spec))
    r = rg.load_region(path)
    assert r.size == 3
    assert rg.region_to_dict(r) == spec

    raw = {"raw": {"B": [[0.0]], "C": [[1.0]]}}
    (tmp_path / "raw.json").write_text(json.dumps(raw))
    r2 = rg.load_region(tmp_path / "raw.json")
    assert r2.size == 1 and r2.primitives == ()
    assert rg.region_to_dict(r2) == raw


def test_region_json_rejects_bad_specs():
    with pytest.raises(ValueError):
        rg.region_from_dict({"intersect": []})
    with pytest.raises(ValueError):
        rg.region_from_dict({"nope": 1})
    with pytest.raises(ValueError):
        rg.region_from_dict({"intersect": [{"q": 0.0, "r": 1.0}]})
    with pytest.raises(ValueError, match="q"):
        rg.region_from_dict({"kind": "disk", "q": None, "r": 1})
    with pytest.raises(ValueError, match="intersect"):
        rg.region_from_dict({"intersect": 3})
    with pytest.raises(ValueError, match="intersect"):
        rg.region_from_dict({"intersect": [3]})
    with pytest.raises(ValueError, match="raw"):
        rg.region_from_dict({"raw": 3})
    with pytest.raises(ValueError, match="kind"):
        rg.region_from_dict({"kind": ["disk"], "q": 0.0, "r": 1.0})
    # a NaN region puts every margin at NaN, which the admissibility check passes
    with pytest.raises(ValueError, match="finite"):
        rg.region_from_dict({"raw": {"B": [[None]], "C": [[1.0]]}})
    with pytest.raises(ValueError, match="finite"):
        rg.region_from_dict({"kind": "disk", "q": math.nan, "r": 1.0})


def test_every_primitive_kind_has_a_public_constructor():
    for kind in rg._PRIMITIVES:
        assert kind in rg.__all__ and kind in omegapair.__all__, kind
        assert getattr(omegapair, kind) is getattr(rg, kind)
    assert sorted(p.kind for p in standard_primitives()) == sorted(rg._PRIMITIVES)


def test_every_primitive_roundtrips_through_json_bit_for_bit():
    for p in standard_primitives():
        r = rg.from_primitive(p)
        back = rg.region_from_dict(json.loads(json.dumps(rg.region_to_dict(r))))
        assert back.primitives == (p,)
        assert back.B.tobytes() == r.B.tobytes() and back.C.tobytes() == r.C.tobytes()


def test_primitives_and_regions_copy_and_pickle():
    regions = [rg.from_primitive(p) for p in standard_primitives()] + [_composite()]
    for r in regions:
        for p in r.primitives:
            for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert (q.kind, q.params) == (p.kind, p.params)
                assert all(getattr(q, name) == value for name, value in p.params.items())
        for c in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert c.B.tobytes() == r.B.tobytes() and c.C.tobytes() == r.C.tobytes()
            assert c.primitives == r.primitives
            assert not (c.B.flags.writeable or c.C.flags.writeable)


def test_is_hurwitz_and_closed_left_half_plane():
    assert rg.is_hurwitz(rg.hurwitz())
    assert not rg.is_hurwitz(rg.schur())
    assert not rg.is_hurwitz(rg.from_primitive(rg.left_half_plane(-1.0)))
    assert rg.is_hurwitz(rg.LmiRegion(np.array([[0.0]]), np.array([[2.0]])))
    assert not rg.is_hurwitz(rg.LmiRegion(np.array([[0.0]]), np.array([[-1.0]])))
    assert rg.in_closed_left_half_plane(rg.hurwitz())
    assert rg.in_closed_left_half_plane(
        rg.from_primitive(rg.disk(-2.0, 1.5)))
    assert not rg.in_closed_left_half_plane(rg.schur())
    assert rg.in_closed_left_half_plane(
        rg.intersect(rg.disk(0.0, 3.0), rg.left_half_plane(0.0)))
    left_disk = rg.from_primitive(rg.disk(-2.0, 1.5))
    assert rg.in_closed_left_half_plane(rg.LmiRegion(left_disk.B, left_disk.C))
    assert not rg.in_closed_left_half_plane(rg.LmiRegion(rg.schur().B, rg.schur().C))


def test_regions_are_immutable():
    r = rg.hurwitz()
    with pytest.raises(ValueError):
        r.B[0, 0] = 5.0
