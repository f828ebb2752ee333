"""Tests for circle sampling, the Funk transform, and the length identities."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from systolab.harmonics import (
    FOUR_PI,
    SphericalFunction,
    build_quadrature,
    normalize_points,
    sh_size,
)
from systolab.metric import (
    DiscreteClosedCurve,
    _polygon_edges,
    curve_length,
    make_variation,
    sup_norm,
)
from systolab.circles import (
    average_great_circle_length,
    circle_frame,
    circle_points,
    find_signed_funk_axes,
    funk_image,
    funk_transform,
    great_circle_length,
    verify_tangent_bundle_identity,
)
from systolab.experiments import write_funk_scan

TWO_PI = 2.0 * math.pi
Y20_POLE = 0.5 * math.sqrt(5.0 / math.pi)

#: P_l(0) for the degrees in play; odd degrees vanish.
LEGENDRE_AT_ZERO = {0: 1.0, 2: -0.5, 4: 0.375, 6: -0.3125, 8: 35.0 / 128.0}


def random_axis(rng):
    u = rng.standard_normal(3)
    return u / np.linalg.norm(u)


def random_direction(seed, degree=8, size=0.3):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(sh_size(degree))
    c[0] = 0.0
    f = SphericalFunction(c)
    return f * (size / sup_norm(f))


class TestCirclePoints:
    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(21)
        axes = np.array([random_axis(rng) for _ in range(40)]).reshape(8, 5, 3)
        offsets = rng.uniform(-1.0, 1.0, size=(8, 5))
        offsets[0, :2] = (1.0, -1.0)
        batch = circle_points(axes, offsets, 64)
        assert batch.shape == (8, 5, 64, 3)
        for i in range(8):
            for j in range(5):
                np.testing.assert_array_equal(
                    batch[i, j], circle_points(axes[i, j], offsets[i, j], 64)
                )

    def test_offsets_broadcast_against_one_axis(self):
        u = random_axis(np.random.default_rng(22))
        offsets = np.linspace(-0.9, 0.9, 7)
        stack = circle_points(u, offsets, 32)
        assert stack.shape == (7, 32, 3)
        for s, pts in zip(offsets, stack):
            np.testing.assert_array_equal(pts, circle_points(u, s, 32))
            np.testing.assert_allclose(pts @ u, s, atol=1e-15)
            np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-15)

    def test_unit_offsets_give_the_poles_exactly(self):
        u = random_axis(np.random.default_rng(23))
        tips = circle_points(u, [1.0, -1.0], 16)
        assert np.all(tips[0] == u)
        assert np.all(tips[1] == -u)

    def test_offset_outside_unit_interval_raises(self):
        u = np.array([0.0, 0.0, 1.0])
        for bad in (1.5, -1.0000001, [0.0, 2.0], float("nan")):
            with pytest.raises(ValueError):
                circle_points(u, bad, 8)


class TestSampleCircle:
    def test_equator_four_points(self):
        c = DiscreteClosedCurve(circle_points(np.array([0.0, 0.0, 1.0]), 0.0, 4))
        expected = np.array(
            [[1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0]]
        )
        np.testing.assert_allclose(c.vertices, expected, atol=1e-15)

    def test_degenerate_point(self):
        c = DiscreteClosedCurve(circle_points(np.array([0.0, 0.0, 1.0]), 1.0, 16))
        assert c.is_point
        np.testing.assert_allclose(c.vertices, [[0.0, 0.0, 1.0]] * 16, atol=0.0)
        south = DiscreteClosedCurve(circle_points(np.array([0.0, 0.0, 1.0]), -1.0, 5))
        np.testing.assert_allclose(south.vertices[0], [0.0, 0.0, -1.0], atol=0.0)

    def test_small_circle_circumference(self):
        g = make_variation(SphericalFunction.zeros(2), 0.0)
        c = DiscreteClosedCurve(circle_points(np.array([0.0, 0.0, 1.0]), 0.5, 256))
        assert curve_length(g, c) == pytest.approx(
            TWO_PI * math.sqrt(1.0 - 0.25), abs=1e-3
        )

    def test_uniform_spacing(self):
        rng = np.random.default_rng(1)
        c = DiscreteClosedCurve(circle_points(random_axis(rng), 0.3, 37))
        _, arcs = _polygon_edges(c.vertices)
        np.testing.assert_allclose(arcs, arcs[0], atol=1e-12)

    def test_screw_rule_orientation(self):
        rng = np.random.default_rng(2)
        u = random_axis(rng)
        pts = DiscreteClosedCurve(circle_points(u, 0.0, 64)).vertices
        # velocity at the first vertex should align with u x position
        vel = pts[1] - pts[0]
        assert np.dot(vel, np.cross(u, pts[0])) > 0.0

    def test_offset_height_and_radius(self):
        rng = np.random.default_rng(3)
        u = random_axis(rng)
        pts = DiscreteClosedCurve(circle_points(u, -0.4, 50)).vertices
        np.testing.assert_allclose(pts @ u, -0.4, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            circle_points(np.array([0.0, 0.0, 1.0]), 1.5, 8)
        with pytest.raises(ValueError):
            DiscreteClosedCurve(circle_points(np.array([0.0, 0.0, 1.0]), 0.0, 2))

    def test_frame_equals_the_numpy_cross_frame(self):
        rng = np.random.default_rng(41)
        u = rng.standard_normal((1000, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        u = np.concatenate([u, np.eye(3), -np.eye(3)])
        got_e1, got_e2 = circle_frame(u)
        u = normalize_points(u)  # circle_frame renormalizes its axes first
        axis = np.eye(3)[np.argmin(np.abs(u), axis=-1)]
        e1 = axis - np.sum(axis * u, axis=-1, keepdims=True) * u
        e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
        np.testing.assert_array_equal(got_e1, e1)
        np.testing.assert_array_equal(got_e2, np.cross(u, e1))
        with pytest.raises(ValueError):
            circle_frame(np.array([0.0, 0.0, 1.1]))

    def test_frame_is_orthonormal_right_handed(self):
        rng = np.random.default_rng(4)
        axes = np.array([random_axis(rng) for _ in range(10)])
        for u in axes:
            e1, e2 = circle_frame(u)
            np.testing.assert_allclose(
                [np.dot(e1, e1), np.dot(e2, e2), np.dot(e1, e2)],
                [1.0, 1.0, 0.0],
                atol=1e-14,
            )
            np.testing.assert_allclose(np.cross(e1, e2), u, atol=1e-14)
        # a (10, 3) batch gives, row by row, the single-axis frames
        batch_e1, batch_e2 = circle_frame(axes)
        assert batch_e1.shape == batch_e2.shape == (10, 3)
        for u, e1, e2 in zip(axes, batch_e1, batch_e2):
            single_e1, single_e2 = circle_frame(u)
            np.testing.assert_array_equal(e1, single_e1)
            np.testing.assert_array_equal(e2, single_e2)


class TestFunkTransform:
    def test_constant_gives_circumference(self):
        one = SphericalFunction.constant(1.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            assert funk_transform(one, random_axis(rng)) == pytest.approx(
                TWO_PI, rel=1e-14
            )

    def test_odd_functions_vanish(self):
        rng = np.random.default_rng(6)
        f = SphericalFunction.from_pairs(
            [(1, 0, 0.7), (3, 2, -1.1), (5, -4, 0.4), (7, 7, 0.9)]
        )
        for _ in range(10):
            assert abs(funk_transform(f, random_axis(rng))) < 1e-12

    def test_zonal_value_at_pole(self):
        f = SphericalFunction.harmonic(2, 0)
        got = funk_transform(f, np.array([0.0, 0.0, 1.0]))
        assert got == pytest.approx(-math.pi * Y20_POLE, rel=1e-12)
        assert got == pytest.approx(-1.9817, abs=5e-5)

    @pytest.mark.parametrize("l", range(9))
    def test_eigenstructure(self, l):
        rng = np.random.default_rng(40 + l)
        m = int(rng.integers(-l, l + 1))
        f = SphericalFunction.harmonic(l, m)
        image = funk_image(f)
        expected_scale = TWO_PI * LEGENDRE_AT_ZERO.get(l, 0.0)
        for _ in range(50):
            u = random_axis(rng)
            got = funk_transform(f, u)
            want = expected_scale * SphericalFunction.harmonic(l, m)(u)
            if l % 2 == 1:
                assert abs(got) < 1e-12
            else:
                assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))
            assert image(u) == pytest.approx(got, abs=1e-11)

    def test_eigenvalues_are_exact(self):
        # 2 pi P_l(0) to the last bit, which a library P_l(0) can miss by an ulp
        for l in range(9):
            image = funk_image(SphericalFunction.harmonic(l, 0))
            assert image.coefficient(l, 0) == TWO_PI * LEGENDRE_AT_ZERO.get(l, 0.0)

    def test_batched_matches_single(self):
        f = random_direction(7)
        rng = np.random.default_rng(8)
        axes = np.array([random_axis(rng) for _ in range(12)])
        batch = funk_transform(f, axes.reshape(3, 4, 3))
        assert batch.shape == (3, 4)
        singles = [funk_transform(f, u) for u in axes]
        assert all(type(v) is float for v in singles)
        assert [funk_transform(f, u[None])[0] for u in axes] == singles
        np.testing.assert_array_equal(batch.ravel(), singles)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_antipodal_symmetry(self, seed):
        f = random_direction(seed)
        rng = np.random.default_rng(seed + 1)
        u = random_axis(rng)
        assert funk_transform(f, u) == pytest.approx(
            funk_transform(f, -u), abs=1e-12
        )


class TestGreatCircleLength:
    def test_round(self):
        g = make_variation(SphericalFunction.zeros(4), 0.0)
        rng = np.random.default_rng(9)
        assert great_circle_length(g, random_axis(rng)) == pytest.approx(
            TWO_PI, rel=1e-14
        )

    def test_odd_direction_keeps_length(self):
        g = make_variation(SphericalFunction.harmonic(1, 0), 0.3)
        rng = np.random.default_rng(10)
        for _ in range(8):
            got = great_circle_length(g, random_axis(rng))
            assert got == pytest.approx(TWO_PI, abs=1e-10)

    def test_zonal_length_at_pole(self):
        g = make_variation(SphericalFunction.harmonic(2, 0), 0.1)
        got = great_circle_length(g, np.array([0.0, 0.0, 1.0]))
        assert got == pytest.approx(TWO_PI - 0.1 * math.pi * Y20_POLE, rel=1e-12)
        assert got == pytest.approx(TWO_PI - 0.19817, abs=5e-6)

    def test_exact_length_identity_random(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            f = random_direction(1000 + trial, degree=int(rng.integers(2, 9)))
            t = float(rng.uniform(-0.45, 0.45))
            g = make_variation(f, t)
            u = random_axis(rng)
            lhs = great_circle_length(g, u)
            rhs = TWO_PI + t * funk_transform(f, u)
            assert abs(lhs - rhs) <= 1e-10

    def test_orientation_independence(self):
        f = random_direction(12)
        g = make_variation(f, 0.2)
        u = np.array([0.3, -0.5, 0.81]) / np.linalg.norm([0.3, -0.5, 0.81])
        c = DiscreteClosedCurve(circle_points(u, 0.0, 128))
        reversed_c = DiscreteClosedCurve(c.vertices[::-1])
        assert curve_length(g, c) == pytest.approx(
            curve_length(g, reversed_c), rel=1e-14
        )

    def test_batch_matches_single(self):
        g = make_variation(random_direction(13), 0.15)
        rng = np.random.default_rng(14)
        axes = np.array([random_axis(rng) for _ in range(9)])
        batch = great_circle_length(g, axes)
        assert batch.shape == (9,)
        singles = [great_circle_length(g, u) for u in axes]
        assert all(type(v) is float for v in singles)
        assert [great_circle_length(g, u[None])[0] for u in axes] == singles
        np.testing.assert_allclose(batch, singles, atol=1e-12)


class TestAveragingIdentities:
    def test_round_average(self):
        g = make_variation(SphericalFunction.zeros(4), 0.0)
        assert average_great_circle_length(g) == pytest.approx(TWO_PI, abs=1e-12)

    def test_zonal_average(self):
        g = make_variation(SphericalFunction.harmonic(2, 0), 0.15)
        assert average_great_circle_length(g) == pytest.approx(TWO_PI, abs=1e-8)

    def test_mixed_average(self):
        f = SphericalFunction.from_pairs([(2, 0, 1.0), (4, 2, 0.5)])
        g = make_variation(f, 0.1)
        assert average_great_circle_length(g) == pytest.approx(TWO_PI, abs=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_average_property(self, seed):
        rng = np.random.default_rng(seed)
        f = random_direction(seed, degree=int(rng.integers(1, 9)))
        g = make_variation(f, float(rng.uniform(-0.4, 0.4)))
        assert average_great_circle_length(g) == pytest.approx(TWO_PI, abs=1e-8)

    def test_tangent_bundle_round(self):
        g = make_variation(SphericalFunction.zeros(4), 0.0)
        lhs, rhs = verify_tangent_bundle_identity(g)
        assert lhs == pytest.approx(8.0 * math.pi**2, abs=1e-7)
        assert rhs == pytest.approx(8.0 * math.pi**2, abs=1e-7)

    @pytest.mark.parametrize(
        "pairs,t",
        [([(3, 0, 1.0)], 0.2), ([(2, 0, 1.0)], 0.1)],
    )
    def test_tangent_bundle_variations(self, pairs, t):
        g = make_variation(SphericalFunction.from_pairs(pairs), t)
        lhs, rhs = verify_tangent_bundle_identity(g)
        assert lhs == pytest.approx(8.0 * math.pi**2, abs=1e-7)
        assert rhs == pytest.approx(8.0 * math.pi**2, abs=1e-7)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSignedFunkAxes:
    def test_odd_direction_returns_none(self):
        f = SphericalFunction.from_pairs([(1, 1, 0.5), (3, -2, 1.0), (5, 0, 0.3)])
        assert find_signed_funk_axes(f) is None

    def test_zero_returns_none(self):
        assert find_signed_funk_axes(SphericalFunction.zeros(4)) is None

    def test_zonal_axes(self):
        f = SphericalFunction.harmonic(2, 0)
        result = find_signed_funk_axes(f)
        assert result is not None
        u0, u1 = result
        assert abs(u0[2]) == pytest.approx(1.0, abs=1e-6)  # polar axis
        assert abs(u1[2]) == pytest.approx(0.0, abs=1e-6)  # equatorial axis
        assert funk_transform(f, u0) == pytest.approx(-math.pi * Y20_POLE, rel=1e-9)
        assert funk_transform(f, u1) == pytest.approx(
            math.pi * Y20_POLE / 2.0, rel=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_dichotomy_property(self, seed):
        rng = np.random.default_rng(seed)
        degree = int(rng.integers(1, 9))
        f = random_direction(seed, degree=degree)
        result = find_signed_funk_axes(f)
        if result is None:
            q = build_quadrature(40)
            image = funk_image(f)
            vals = q.synthesize(image.coeffs)
            assert float(np.max(np.abs(vals))) <= 1e-8
        else:
            u0, u1 = result
            assert funk_transform(f, u0) < 0.0 < funk_transform(f, u1)

    @pytest.mark.parametrize(
        "pairs",
        [
            [(2, 1, 1.0), (4, 3, 0.5)],
            [(2, 0, 1.0), (4, 3, 0.6), (6, -1, 0.3)],
            [(2, 0, 1.0)],  # the maximum of the image is the equator ring
        ],
    )
    def test_axes_are_critical_points_of_the_image(self, pairs):
        f = SphericalFunction.from_pairs(pairs)
        image = funk_image(f)
        for u in find_signed_funk_axes(f):
            assert np.linalg.norm(image.gradient(u)) <= 1e-9

    # the acceptance directions' axes, recorded with the polish that ran
    # eigh on numpy arrays (Y30 is odd and has none)
    ACCEPTANCE_AXES = {
        "Y20": [(-4.0539781208016725e-14, 0.0, -1.0), (1.0, 0.0, 7.960807523382911e-16)],
        "Y30": None,
        "Y21+0.5*Y43": [(-0.5388588868848021, -0.5678666804150732, -0.6222206467963252),
                        (-0.5388588868848021, -0.5678666804150732, 0.6222206467963252)],
        "Y10+Y20": [(-4.0539781208016725e-14, 0.0, -1.0), (1.0, 0.0, 7.960807523382911e-16)],
    }

    @pytest.mark.parametrize("label, pairs", [
        ("Y20", [(2, 0, 1.0)]),
        ("Y30", [(3, 0, 1.0)]),
        ("Y21+0.5*Y43", [(2, 1, 1.0), (4, 3, 0.5)]),
        ("Y10+Y20", [(1, 0, 1.0), (2, 0, 1.0)]),
    ])
    def test_acceptance_axes_are_pinned(self, label, pairs):
        axes = find_signed_funk_axes(SphericalFunction.from_pairs(pairs))
        expected = self.ACCEPTANCE_AXES[label]
        if expected is None:
            assert axes is None
        else:
            np.testing.assert_allclose(np.asarray(axes), expected, rtol=0.0, atol=1e-14)

    def test_refinement_beats_grid(self):
        # refined minimum must not be worse than the best scanned node
        f = SphericalFunction.from_pairs([(2, 0, 1.0), (4, 3, 0.6), (6, -1, 0.3)])
        q = build_quadrature(18)
        image = funk_image(f)
        grid_min = float(np.min(q.synthesize(image.coeffs)))
        u0, _ = find_signed_funk_axes(f)
        assert funk_transform(f, u0) <= grid_min + 1e-12


class TestFunkScan:
    def test_csv_dump(self, tmp_path):
        f = SphericalFunction.harmonic(2, 0)
        path = tmp_path / "scan.csv"
        write_funk_scan(f, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ux", "uy", "uz", "funk_value"]
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        assert data.shape[1] == 4
        # scan values must match direct transforms
        k = len(data) // 2
        u = data[k, :3]
        assert funk_transform(f, u) == pytest.approx(data[k, 3], abs=1e-10)
        # zonal scan straddles zero
        assert data[:, 3].min() < 0.0 < data[:, 3].max()
