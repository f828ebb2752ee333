"""Tests for geodesics: integration, Birkhoff shortening, tightening a family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from systolab.errors import CurvatureNotPositive, StepTooLarge, SystolabError
from systolab.harmonics import SphericalFunction
from systolab.metric import (
    DiscreteClosedCurve,
    curve_length,
    make_variation,
    min_curvature,
)
from systolab.circles import (
    circle_points,
    find_signed_funk_axes,
    funk_transform,
)
from systolab.geodesics import (
    COLLAPSE_THRESHOLD,
    FROZEN_RESIDUAL,
    POLISH_EVERY,
    POLISH_EVERY_NONPOSITIVE,
    POLISH_GRAD_TOL,
    SAME_LENGTH,
    SEED_CIRCLES,
    GeodesicResult,
    SystoleReport,
    TightenResult,
    birkhoff_shorten,
    estimate_systole,
    integrate_geodesic,
    length_increase_violations,
    tighten_sweepout,
    _coarse_vertices,
    _distinct,
    _energy_descent,
    _energy_gradient,
    _half_pass,
    _jacobian_pattern,
    _landed,
    _linearize,
    _newton_polish,
    _polish,
    _polish_every,
    _prolong,
    _refine,
    _run_passes,
    _shorten_batch,
)
from systolab.metric import (
    _arc_lengths,
    _batch_metric_lengths,
    _dots,
    _polygon_edges,
    _polygon_energy,
    circle_frame,
)

TWO_PI = 2.0 * math.pi

ROUND = make_variation(SphericalFunction.zeros(4), 0.0)
ZONAL = make_variation(SphericalFunction.harmonic(2, 0), 0.1)
MIXED = make_variation(SphericalFunction.from_pairs([(2, 1, 1.0), (4, 3, 0.5)]), 0.1)
ODD = make_variation(SphericalFunction.harmonic(3, 0), 0.05)
Y30 = make_variation(SphericalFunction.harmonic(3, 0), 0.1)
Y30_STEEP = make_variation(SphericalFunction.harmonic(3, 0), 0.15)
POLE = np.array([0.0, 0.0, 1.0])

# the Funk transform of Y20 at the pole axis and at an equatorial axis
Y20_POLE = 0.5 * math.sqrt(5.0 / math.pi)
FUNK_Y20_POLE = -math.pi * Y20_POLE
FUNK_Y20_EQUATOR = math.pi * Y20_POLE / 2.0


def grad_norm(g, V):
    """Largest per-vertex norm of the discrete energy gradient."""
    return float(np.max(np.linalg.norm(_energy_gradient(g, V)[0], axis=-1)))


def random_tangent_starts(count, seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(count, 3))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    v = rng.normal(size=(count, 3))
    v -= np.sum(v * p, axis=-1, keepdims=True) * p
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return p, v


class TestIntegrateGeodesic:
    def test_round_great_circle_closes(self):
        p, v = random_tangent_starts(50, seed=1)
        path = integrate_geodesic(ROUND, p, v, TWO_PI, h=5e-3)
        assert np.max(np.linalg.norm(path.endpoint - p, axis=-1)) < 1e-8

    def test_round_antipode_at_half_period(self):
        p, v = random_tangent_starts(8, seed=2)
        path = integrate_geodesic(ROUND, p, v, math.pi, h=5e-3)
        assert np.max(np.linalg.norm(path.endpoint + p, axis=-1)) < 1e-9

    def test_round_cumulative_length_is_time(self):
        p = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        path = integrate_geodesic(ROUND, p, v, TWO_PI, h=5e-3)
        assert path.lengths[-1] == pytest.approx(TWO_PI, abs=1e-9)
        # length accumulates linearly at unit speed
        mid = len(path.times) // 2
        assert path.lengths[mid] == pytest.approx(path.times[mid], abs=1e-9)

    def test_fourth_order_in_step_size(self):
        p = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        ends = []
        for h in (0.01, 0.005, 0.0025):
            ends.append(integrate_geodesic(MIXED, p, v, 2.0, h=h).endpoint)
        coarse = np.linalg.norm(ends[0] - ends[1])
        fine = np.linalg.norm(ends[1] - ends[2])
        assert 11.0 < coarse / fine < 22.0

    def test_energy_conservation(self):
        p, v = random_tangent_starts(5, seed=3)
        path = integrate_geodesic(MIXED, p, v, TWO_PI, h=2e-3)
        assert path.energy_drift < 1e-10

    def test_length_matches_polygon_quadrature(self):
        # the integrated metric length agrees with the midpoint-rule length
        # of the densely sampled trajectory
        p = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 0.8, 0.6])
        path = integrate_geodesic(ZONAL, p, v, 3.0, h=1e-3)
        pts = path.points
        mids = pts[:-1] + pts[1:]
        mids /= np.linalg.norm(mids, axis=-1, keepdims=True)
        w = ZONAL.w(mids)
        arcs = np.arccos(np.clip(np.sum(pts[:-1] * pts[1:], axis=-1), -1, 1))
        assert path.lengths[-1] == pytest.approx(float(np.sum(w * arcs)), abs=1e-6)

    def test_step_cap(self):
        p = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            integrate_geodesic(ROUND, p, v, 1.0, h=0.02)

    def test_drift_guard(self):
        p = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 200.0, 0.0])
        with pytest.raises(StepTooLarge):
            integrate_geodesic(ZONAL, p, v, 1.0, h=1e-2)

    def test_zero_velocity_rejected(self):
        p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            integrate_geodesic(ROUND, p, np.zeros(3), 1.0)

    def test_nonpositive_time_rejected(self):
        p = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            integrate_geodesic(ROUND, p, v, 0.0)


class TestBirkhoffShorten:
    def test_round_equator_is_fixed(self):
        eq = DiscreteClosedCurve(circle_points(POLE, 0.0, 128))
        res = birkhoff_shorten(ROUND, eq)
        assert not res.collapsed
        assert res.residual < 1e-12
        assert res.length == pytest.approx(TWO_PI, abs=1e-12)

    def test_zonal_equator_is_discrete_geodesic(self):
        eq = DiscreteClosedCurve(circle_points(POLE, 0.0, 128))
        res = birkhoff_shorten(ZONAL, eq)
        assert not res.collapsed
        assert res.residual < 1e-12
        # w is constant on the equator, so the discrete length is exact
        assert res.length == pytest.approx(TWO_PI + 0.1 * FUNK_Y20_POLE, abs=1e-10)

    def test_tilted_circle_slides_to_equator(self):
        axis = np.array([math.sin(0.3), 0.0, math.cos(0.3)])
        start = DiscreteClosedCurve(circle_points(axis, 0.0, 128))
        res = birkhoff_shorten(ZONAL, start)
        assert not res.collapsed
        assert res.residual < 1e-10
        assert res.length == pytest.approx(TWO_PI + 0.1 * FUNK_Y20_POLE, abs=1e-9)
        assert res.length <= curve_length(ZONAL, start)

    def test_small_circle_collapses(self):
        small = DiscreteClosedCurve(circle_points(POLE, 0.6, 32))
        res = birkhoff_shorten(ZONAL, small)
        assert res.collapsed
        assert _polygon_edges(res.curve.vertices)[1].sum() < COLLAPSE_THRESHOLD

    def test_point_curve_rejected(self):
        with pytest.raises(ValueError):
            birkhoff_shorten(ROUND, DiscreteClosedCurve.point(POLE, 32))

    def test_odd_vertex_count_rejected(self):
        crv = DiscreteClosedCurve(circle_points(POLE, 0.0, 33))
        with pytest.raises(ValueError):
            birkhoff_shorten(ROUND, crv)

    def test_no_length_increase_violations(self):
        assert length_increase_violations() == 0


class TestBatchedShortening:
    def test_frozen_rows_keep_the_lengths_of_a_full_evaluation(self):
        # a point curve (frozen from the start), the ZONAL equator (a discrete
        # geodesic, frozen after one pass) and two tilted circles still moving
        tilted = [np.array([math.sin(a), 0.0, math.cos(a)]) for a in (0.2, 0.4)]
        X = np.stack([
            DiscreteClosedCurve.point(POLE, 64).vertices,
            circle_points(POLE, 0.0, 64),
            *circle_points(np.array(tilted), 0.0, 64),
        ])
        active = np.array([False, True, True, True])
        collapsed = np.zeros(4, dtype=bool)
        residuals = np.where(active, np.inf, 0.0)
        seen = []

        def on_pass(k, lengths):
            seen.append((lengths.copy(), _batch_metric_lengths(ZONAL, X), active.copy()))

        lengths, done = _run_passes(ZONAL, X, active, collapsed, residuals, 20, on_pass=on_pass)
        assert list(done) == [0, 1, 20, 20] and len(seen) == 20
        assert not seen[-1][2][:2].any() and seen[-1][2][2:].all()
        for carried, full, _ in seen:
            np.testing.assert_array_equal(carried, full)
        np.testing.assert_array_equal(lengths, _batch_metric_lengths(ZONAL, X))

    def test_pass_lengths_and_collapse_flags_equal_a_full_evaluation(self):
        # three noisy circles of MIXED at n = 64, whose half passes keep some
        # vertices and refuse others (TestHalfPass), a small circle that
        # collapses after a few passes and a frozen curve
        X = np.concatenate([noisy_circles(64, seed=35),
                            circle_points(POLE, [0.99985, 0.5], 64)])
        active = np.array([True, True, True, True, False])
        collapsed = np.zeros(5, dtype=bool)
        residuals = np.where(active, np.inf, 0.0)
        frozen = X[4].copy()
        seen = [(active.copy(), collapsed.copy())]

        def on_pass(k, lengths):
            moving, before = seen[-1]
            np.testing.assert_array_equal(lengths, _batch_metric_lengths(MIXED, X))
            round_lengths = _polygon_edges(X)[1].sum(axis=-1)
            np.testing.assert_array_equal(collapsed & ~before,
                                          moving & (round_lengths < COLLAPSE_THRESHOLD))
            seen.append((active.copy(), collapsed.copy()))

        lengths, done = _run_passes(MIXED, X, active, collapsed, residuals, 12, on_pass=on_pass)
        assert len(seen) == 13
        assert list(collapsed) == [False, False, False, True, False]
        assert 0 < done[3] < 12 and done[4] == 0
        np.testing.assert_array_equal(X[4], frozen)
        np.testing.assert_array_equal(lengths, _batch_metric_lengths(MIXED, X))

    def test_a_pass_makes_two_harmonic_calls_of_each_kind(self, monkeypatch):
        # one w_and_grad and one w_flat call per half pass; the pass takes
        # its lengths from the second half pass
        g = make_variation(MIXED.f, 0.1)
        calls = {"w_and_grad": 0, "w_flat": 0}
        for name in calls:
            def counted(pts, name=name, original=getattr(g, name)):
                calls[name] += 1
                return original(pts)
            monkeypatch.setattr(g, name, counted)
        X = noisy_circles(64, seed=35)
        per_pass = []

        def on_pass(k, lengths):
            per_pass.append(dict(calls))
            calls.update(w_and_grad=0, w_flat=0)

        _run_passes(g, X, np.ones(3, dtype=bool), np.zeros(3, dtype=bool),
                    np.full(3, np.inf), 3, on_pass=on_pass)
        # the first pass also counts the starting lengths
        assert per_pass == [{"w_and_grad": 2, "w_flat": 3}] + 2 * [{"w_and_grad": 2, "w_flat": 2}]

    def test_early_frozen_curve_keeps_its_residual(self):
        # seed circles of MIXED at n = 32: the first freezes in the first
        # chunk of passes, the second needs one more chunk
        rng = np.random.default_rng(0)
        axes = rng.normal(size=(20, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        alone = circle_points(axes[5:6], 0.0, 32)
        _, solo, _, solo_passes = _shorten_batch(MIXED, alone, POLISH_EVERY)
        pair = circle_points(axes[[5, 12]], 0.0, 32)
        _, both, _, pair_passes = _shorten_batch(MIXED, pair, POLISH_EVERY)
        assert pair_passes[1] > solo_passes[0] > 0
        # each curve counts the passes it moved in, the count it gets alone
        assert pair_passes[0] == solo_passes[0]
        assert 0.0 < solo[0] < 1e-10
        assert both[0] == solo[0]

    def test_polish_every_follows_the_sign_of_the_curvature(self):
        steep_odd = make_variation(SphericalFunction.harmonic(3, 0), 0.15)
        assert _polish_every(MIXED) == POLISH_EVERY
        assert _polish_every(steep_odd) == POLISH_EVERY_NONPOSITIVE

    @pytest.mark.parametrize("t", [0.1, -0.1])
    def test_straggler_becomes_a_witness(self, t):
        # from this seed circle Newton climbs toward a higher critical point
        # and gives up; the energy descent takes the curve to the systole
        g = make_variation(MIXED.f, t)
        axis = np.random.default_rng(0).normal(size=(20, 3))[10]
        X = circle_points(axis[None] / np.linalg.norm(axis), 0.0, 128)
        lengths, residuals, collapsed, passes = _shorten_batch(g, X, _polish_every(g))
        assert not collapsed[0]
        assert residuals[0] < 1e-10
        # at most two chunks of passes, each closed by its measuring pass
        assert passes[0] <= 2 * (POLISH_EVERY + 1)
        assert lengths[0] == pytest.approx(estimate_systole(g).systole, rel=0.0, abs=1e-12)


class TestArcLengths:
    def test_identical_antipodal_and_tiny_angles(self):
        p, v = random_tangent_starts(16, seed=31)
        np.testing.assert_array_equal(_arc_lengths(p, p), 0.0)
        np.testing.assert_array_equal(_arc_lengths(p, -p), math.pi)
        for angle in (1e-8, 3e-9, 2.5e-8):
            q = math.cos(angle) * p + math.sin(angle) * v
            np.testing.assert_allclose(_arc_lengths(p, q), angle, rtol=1e-7)

    def test_matches_numpy_cross_and_dot(self):
        p, v = random_tangent_starts(50, seed=32)
        q = np.cos(0.7) * p + np.sin(0.7) * v
        expected = np.arctan2(np.linalg.norm(np.cross(p, q), axis=-1), np.sum(p * q, axis=-1))
        np.testing.assert_array_equal(_arc_lengths(p, q), expected)


def noisy_circles(n, seed, count=3, noise=1e-2):
    """count great circles at n vertices, each vertex moved by noise."""
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(count, 3))
    X = circle_points(axes / np.linalg.norm(axes, axis=-1, keepdims=True), 0.0, n)
    X += noise * rng.standard_normal(X.shape)
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


def two_segment_lengths(g, a, x, b):
    """Metric length of the paths a--x--b (midpoint rule), from g.w alone."""
    unit = lambda p: p / np.linalg.norm(p, axis=-1, keepdims=True)
    return g.w(unit(a + x)) * _arc_lengths(a, x) + g.w(unit(x + b)) * _arc_lengths(x, b)


class TestEnergyGradient:
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("g", [ROUND, MIXED], ids=["round", "mixed"])
    def test_matches_central_differences_of_the_energy(self, g, n):
        # every vertex moved along its tangent frame by +-h, all in one
        # energy call; each kept term of the kernel is needed to pass
        h = 1e-6
        X = noisy_circles(n, seed=37 + n)
        grad = _energy_gradient(g, X)[0]
        e1, e2 = circle_frame(X)
        frame = np.stack([e1, e2], axis=-2)
        # W[c, v, e, s] is curve c with vertex v moved by s h along frame vector e
        shifts = np.einsum("uv,cvei->cveui", np.eye(n), frame)
        sign = np.array([1.0, -1.0])[:, None, None]
        W = X[:, None, None, None] + h * sign * shifts[:, :, :, None]
        W /= np.linalg.norm(W, axis=-1, keepdims=True)
        energy = _polygon_energy(g, W)
        difference = (energy[..., 0] - energy[..., 1]) / (2.0 * h)
        exact = np.einsum("cvi,cvei->cve", grad, frame)
        scale = np.max(np.linalg.norm(grad, axis=-1))
        assert scale > 0.1
        assert np.max(np.abs(difference - exact)) <= 1e-8 * scale

    def test_edge_factors_give_the_segment_lengths(self):
        # w at each unit edge midpoint and the round edge length d: the
        # two-segment length of vertex k is w d of edges k - 1 and k
        X = noisy_circles(64, seed=33)
        for g in (ROUND, MIXED):
            _, w, d = _energy_gradient(g, X)
            a, b = np.roll(X, 1, axis=-2), np.roll(X, -1, axis=-2)
            np.testing.assert_allclose(
                np.roll(w * d, 1, axis=-1) + w * d, two_segment_lengths(g, a, X, b),
                rtol=1e-15, atol=0.0,
            )
            np.testing.assert_array_equal(d, _arc_lengths(X, b))


class TestHalfPass:
    def test_one_newton_step_and_one_length_test_per_vertex(self, monkeypatch):
        # three noisy circles of MIXED at n = 64: in each parity class one or
        # two vertices would lengthen their two-segment path by the Newton
        # step, and stay where they were
        g = make_variation(MIXED.f, 0.1)
        n = 64
        X = noisy_circles(n, seed=35)
        calls = {"w_and_grad": 0, "w_flat": 0}
        for name in calls:
            def counted(pts, name=name, original=getattr(g, name)):
                calls[name] += 1
                return original(pts)
            monkeypatch.setattr(g, name, counted)
        for parity in (0, 1):
            idx = np.arange(parity, n, 2)
            a = X[:, (idx - 1) % n].reshape(-1, 3)
            b = X[:, (idx + 1) % n].reshape(-1, 3)
            start = X[:, idx].reshape(-1, 3)
            # the damped Newton step on the two-segment energy, whose
            # gradient is 4 pi / n times grad E, capped at 0.45 max(d1, d2)
            grad, w, d = _energy_gradient(g, X)
            w1, w2 = w[:, idx - 1].ravel(), w[:, idx].ravel()
            d1, d2 = d[:, idx - 1].ravel(), d[:, idx].ravel()
            step = grad[:, idx].reshape(-1, 3) * (-(TWO_PI / n) / (w1 * w1 + w2 * w2))[:, None]
            norm = np.linalg.norm(step, axis=-1)
            cap = 0.45 * np.maximum(d1, d2)
            proposal = start + np.where(norm > cap, cap / norm, 1.0)[:, None] * step
            proposal /= np.linalg.norm(proposal, axis=-1, keepdims=True)
            before = two_segment_lengths(g, a, start, b)
            kept = two_segment_lengths(g, a, proposal, b) <= before
            assert kept.any() and not kept.all()
            others = np.delete(X, idx, axis=1)
            calls.update(w_and_grad=0, w_flat=0)
            disp, seg, arcs = _half_pass(g, X, parity, np.ones(3, dtype=bool))
            assert calls == {"w_and_grad": 1, "w_flat": 1}
            # the segments and arcs of the polygon it leaves, as a fresh
            # evaluation measures them
            mids, fresh = _polygon_edges(X)
            np.testing.assert_array_equal(arcs, fresh)
            np.testing.assert_array_equal(seg, g.w_flat(mids.reshape(-1, 3)).reshape(3, n) * fresh)
            moved = X[:, idx].reshape(-1, 3)
            np.testing.assert_array_equal(moved[kept], proposal[kept])
            np.testing.assert_array_equal(moved[~kept], start[~kept])
            assert np.all(two_segment_lengths(g, a, moved, b) <= before)
            np.testing.assert_array_equal(np.delete(X, idx, axis=1), others)
            np.testing.assert_allclose(
                disp, np.linalg.norm(moved - start, axis=-1).reshape(3, -1).max(axis=1),
                rtol=1e-15,
            )


class TestNewtonPolish:
    def test_perturbed_equator_under_zonal_metric(self):
        # the zonal metric turns the equator into a rotation family of geodesics
        rng = np.random.default_rng(34)
        start = circle_points(POLE, 0.0, 128) + 1e-3 * rng.standard_normal((128, 3))
        start /= np.linalg.norm(start, axis=-1, keepdims=True)
        V, landed = _newton_polish(ZONAL, start[None])
        assert landed[0]
        out = V[0]
        assert np.all(np.isfinite(out))
        assert grad_norm(ZONAL, out) < 1e-11
        assert _polygon_energy(ZONAL, out) <= _polygon_energy(ZONAL, start)
        np.testing.assert_allclose(out[:, 2], 0.0, atol=1e-9)

    def test_stacked_gradient_equals_single_calls(self):
        rng = np.random.default_rng(36)
        V = circle_points(POLE, 0.0, 128) + 1e-2 * rng.standard_normal((5, 128, 3))
        V /= np.linalg.norm(V, axis=-1, keepdims=True)
        for g in (ROUND, MIXED):
            stacked = _energy_gradient(g, V)[0]
            for k in range(V.shape[0]):
                np.testing.assert_array_equal(stacked[k], _energy_gradient(g, V[k])[0])
            np.testing.assert_array_equal(
                _energy_gradient(g, V[None, 1:3])[0], stacked[None, 1:3]
            )

    def test_harmonic_call_budget(self, monkeypatch):
        # one batched Jacobian call per iteration, one call per line-search
        # trial (at most 5), and one for the starting gradient
        import systolab.geodesics as geodesics
        import systolab.metric as metric

        grad_calls, solves = [], []
        original_grad = metric.sh_sum_grad
        original_solve = geodesics._band_solve

        def counted_grad(*args):
            grad_calls.append(1)
            return original_grad(*args)

        def counted_solve(*args, **kwargs):
            solves.append(1)
            return original_solve(*args, **kwargs)

        monkeypatch.setattr(metric, "sh_sum_grad", counted_grad)
        monkeypatch.setattr(geodesics, "_band_solve", counted_solve)
        rng = np.random.default_rng(34)
        start = circle_points(POLE, 0.0, 128) + 1e-3 * rng.standard_normal((128, 3))
        start /= np.linalg.norm(start, axis=-1, keepdims=True)
        assert _newton_polish(ZONAL, start[None])[1][0]
        assert len(solves) > 0
        assert len(grad_calls) <= 1 + len(solves) * (1 + 5)

    def test_non_symmetric_direction(self):
        start = circle_points(find_signed_funk_axes(MIXED.f)[0], 0.0, 128)
        V, landed = _newton_polish(MIXED, start[None])
        assert landed[0]
        out = V[0]
        assert grad_norm(MIXED, out) < 1e-11
        assert _polygon_energy(MIXED, out) <= _polygon_energy(MIXED, start)

    def test_uphill_landing_is_kept_where_the_curvature_is_positive(self):
        # the parallel at height 0.05 is shorter than the equator, so
        # Newton's jump to the equator raises the energy; where K > 0
        # everywhere the landing is kept
        assert min_curvature(ZONAL) > 0.0
        start = circle_points(POLE, 0.05, 32)
        V, landed = _newton_polish(ZONAL, start[None])
        assert landed[0]
        assert grad_norm(ZONAL, V[0]) < POLISH_GRAD_TOL
        assert _polygon_energy(ZONAL, V[0]) > _polygon_energy(ZONAL, start)
        np.testing.assert_allclose(V[0][:, 2], 0.0, atol=1e-9)

    def test_uphill_landing_is_refused_where_the_curvature_is_not_positive(self, monkeypatch):
        # the same parallel under Y20 at t = -0.5, where K < 0 somewhere:
        # the energy test hands the curve back as it came
        import systolab.geodesics as geodesics

        g = make_variation(SphericalFunction.harmonic(2, 0), -0.5)
        assert min_curvature(g) <= 0.0
        start = circle_points(POLE, 0.05, 32)
        V, landed = _newton_polish(g, start[None])
        assert not landed[0]
        np.testing.assert_array_equal(V[0], start)
        # the test alone refuses it: with the curvature read as positive,
        # Newton keeps its uphill landing on the equator
        monkeypatch.setattr(geodesics, "min_curvature", lambda g: 1.0)
        V, landed = _newton_polish(g, start[None])
        assert landed[0]
        assert grad_norm(g, V[0]) < POLISH_GRAD_TOL
        assert _polygon_energy(g, V[0]) > _polygon_energy(g, start)


def perturbed_equator(shrink, seed=34):
    """The equator at n = 128 plus 1e-3 noise, with or without its mean z shift."""
    noise = 1e-3 * np.random.default_rng(seed).standard_normal((128, 3))
    if not shrink:
        noise[:, 2] -= noise[:, 2].mean()
    start = circle_points(POLE, 0.0, 128) + noise
    return start / np.linalg.norm(start, axis=-1, keepdims=True)


class TestEnergyDescent:
    def test_perturbed_equator_under_zonal_metric(self):
        # the equator is a saddle of the energy: shifting it toward a pole
        # shrinks it.  Without that shift the descent returns to it; with
        # it, the descent slides toward a point and gives up
        assert not _energy_descent(ZONAL, perturbed_equator(shrink=True)[None])[1][0]
        start = perturbed_equator(shrink=False)
        V, landed = _energy_descent(ZONAL, start[None])
        assert landed[0]
        out = V[0]
        assert grad_norm(ZONAL, out) < 1e-11
        assert _polygon_energy(ZONAL, out) <= _polygon_energy(ZONAL, start)
        np.testing.assert_allclose(out[:, 2], 0.0, atol=1e-9)

    @pytest.mark.parametrize("t", [0.05, 0.1])
    def test_odd_direction_seed_circles(self, t):
        # at n = 32 every seed circle of Y30 collapses under Birkhoff passes;
        # from the circle itself the descent may find a geodesic, but it
        # never hands back a curve heading to a point or one that rose
        g = make_variation(SphericalFunction.harmonic(3, 0), t)
        axes = np.random.default_rng(0).normal(size=(20, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        for start in circle_points(axes, 0.0, 32):
            V, landed = _energy_descent(g, start[None])
            if not landed[0]:
                continue
            out = V[0]
            assert _polygon_edges(out)[1].sum() >= COLLAPSE_THRESHOLD
            assert grad_norm(g, out) < 1e-11
            assert _polygon_energy(g, out) <= _polygon_energy(g, start)

    def test_harmonic_call_budget(self, monkeypatch):
        # one Jacobian call and one gradient call per iteration, one energy
        # call per trial step, and one of each for the start
        import systolab.geodesics as geodesics
        import systolab.metric as metric

        grad_calls, energy_calls, solves = [], [], []
        original_grad, original_sum = metric.sh_sum_grad, metric.sh_sum
        original_solve = geodesics._band_solve

        def counted(calls, original):
            def call(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(metric, "sh_sum_grad", counted(grad_calls, original_grad))
        monkeypatch.setattr(metric, "sh_sum", counted(energy_calls, original_sum))
        monkeypatch.setattr(geodesics, "_band_solve", counted(solves, original_solve))
        assert _energy_descent(ZONAL, perturbed_equator(shrink=False)[None])[1][0]
        assert len(solves) > 0
        assert len(grad_calls) <= 1 + 2 * len(solves)
        assert len(energy_calls) <= 1 + len(solves)


def count_calls(monkeypatch):
    """Counts of the sh_sum, sh_sum_grad and _band_solve calls made from now on."""
    import systolab.geodesics as geodesics
    import systolab.metric as metric

    counts = {}
    for module, name in ((metric, "sh_sum"), (metric, "sh_sum_grad"), (geodesics, "_band_solve")):
        def call(*args, _original=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(module, name, call)
    return counts


class TestBatchPolish:
    @pytest.mark.parametrize("case", ["mixed-64", "y30-32"])
    def test_each_curve_is_polished_as_alone(self, case):
        # Y21+0.5*Y43 seeds after 10 passes at 64 vertices all land under
        # Newton.  Of the Y30 seed circles at n = 32 and t = 0.15, where the
        # curvature is somewhere negative and Newton's landings face the
        # energy test, Newton lands on 14, only the descent lands on seeds
        # 2, 4, 5, 17 and 18, and both give up on seed 19, so that batch
        # holds all three cases
        axes = np.random.default_rng(0).normal(size=(20, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        if case == "mixed-64":
            g, X = MIXED, circle_points(axes, 0.0, 64)
            _run_passes(g, X, np.ones(20, dtype=bool), np.zeros(20, dtype=bool),
                        np.full(20, np.inf), 10)
        else:
            g, X = Y30_STEEP, circle_points(axes, 0.0, 32)
            assert min_curvature(g) <= 0.0
            assert list(np.flatnonzero(~_newton_polish(g, X)[1])) == [2, 4, 5, 17, 18, 19]
        V, landed = _polish(g, X)
        if case == "y30-32":
            assert list(np.flatnonzero(~landed)) == [19]
            np.testing.assert_array_equal(V[19], X[19])
        for k in range(X.shape[0]):
            alone, landed_alone = _polish(g, X[k:k + 1])
            assert np.array_equal(V[k], alone[0])
            assert landed[k] == landed_alone[0]

    @pytest.mark.parametrize("n", [32, 64, 130])
    def test_jacobian_pattern_fills_the_band_once(self, n):
        # 12n entries in distinct slots, each within kl = ku = 5 of the
        # diagonal and in the 2x2 block of a vertex and itself or a cyclic
        # neighbor: exactly the 12n entries of those blocks
        _, slots, place = _jacobian_pattern(n)
        assert slots.size == 12 * n
        assert np.unique(slots).size == slots.size
        assert np.all((slots % 16 >= 5) & (slots % 16 <= 15))
        j = slots // 16
        i = j + slots % 16 - 10
        assert np.all((i >= 0) & (i < 2 * n))
        assert sorted(place) == list(range(2 * n))
        coords = np.argsort(place)
        vertex_rows, vertex_cols = coords[i] // 2, coords[j] // 2
        assert np.all(np.isin((vertex_rows - vertex_cols) % n, [0, 1, n - 1]))

    @staticmethod
    def polygons(n, seed):
        """Three circles at n vertices with 1e-2 noise, and their gradients under MIXED."""
        V = noisy_circles(n, seed)
        return V, _energy_gradient(MIXED, V)[0]

    @pytest.mark.parametrize("n", [32, 64, 130])
    def test_banded_step_equals_a_dense_solve(self, monkeypatch, n):
        # the reference J shifts one vertex at a time, renormalizes every
        # vertex and keeps the rows of the vertex and its two neighbors
        import systolab.geodesics as geodesics

        V, grad = self.polygons(n, n)
        pattern = _jacobian_pattern(n)
        jmax, solve, _ = _linearize(MIXED, V[:1], grad[:1], pattern)
        mu = 1e-3 * jmax
        e1, e2 = circle_frame(V[0])
        frame = lambda G: np.stack([_dots(G, e1), _dots(G, e2)], axis=-1).ravel()
        F = frame(grad[0])
        J = np.zeros((2 * n, 2 * n))
        for v in range(n):
            for d, e in enumerate((e1, e2)):
                W = V[0].copy()
                W[v] += 1e-7 * e[v]
                W /= np.linalg.norm(W, axis=-1, keepdims=True)
                column = (frame(_energy_gradient(MIXED, W)[0]) - F) / 1e-7
                for u in np.arange(v - 1, v + 2) % n:
                    J[2 * u:2 * u + 2, 2 * v + d] = column[2 * u:2 * u + 2]
        dense = np.linalg.solve(J + mu[0] * np.eye(2 * n), -F)
        bands = []
        original = geodesics._band_solve

        def band_solve(ab, rhs):
            bands.append(ab.copy())
            return original(ab, rhs)

        monkeypatch.setattr(geodesics, "_band_solve", band_solve)
        step = solve(mu, np.inf, np.arange(1))[0]
        # every band entry is the reference's, bit for bit: entry (i, j) of
        # the zig-zag J + mu I at [j, 10 + i - j], nothing outside the band
        place = pattern[2]
        zigzag = np.zeros((2 * n, 2 * n))
        zigzag[np.ix_(place, place)] = J + mu[0] * np.eye(2 * n)
        i, j = np.indices(zigzag.shape)
        inside = np.abs(i - j) <= 5
        assert not np.any(zigzag[~inside])
        reference = np.zeros((2 * n, 16))
        reference[j[inside], 10 + i[inside] - j[inside]] = zigzag[inside]
        np.testing.assert_array_equal(bands[0][0], reference)
        assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [32, 64, 130])
    def test_batch_solve_equals_each_block_alone(self, n):
        V, grad = self.polygons(n, n)
        pattern = _jacobian_pattern(n)
        jmax, solve, _ = _linearize(MIXED, V, grad, pattern)
        mu = 1e-10 * jmax
        steps = solve(mu, 0.25, np.arange(3))
        for k in range(3):
            alone = _linearize(MIXED, V[k:k + 1], grad[k:k + 1], pattern)[1]
            np.testing.assert_array_equal(steps[k], alone(mu[k:k + 1], 0.25, np.arange(1))[0])

    @pytest.mark.parametrize("broken", ["zero-column", "nan-entry"])
    def test_singular_block_gives_up_alone(self, monkeypatch, broken):
        # the middle curve's first system loses a column, so dgbsv meets an
        # exact zero pivot in its block, or gets a NaN entry: that curve
        # gets a non-finite step, the other two the steps they get alone,
        # and Newton hands the middle curve back as it came
        import systolab.geodesics as geodesics

        X = np.stack([perturbed_equator(shrink=False, seed=seed) for seed in (30, 31, 32)])
        grad = _energy_gradient(ZONAL, X)[0]
        pattern = _jacobian_pattern(128)
        jmax, solve, _ = _linearize(ZONAL, X, grad, pattern)
        mu = 1e-10 * jmax
        alone = []
        for k in range(3):
            solve_alone = _linearize(ZONAL, X[k:k + 1], grad[k:k + 1], pattern)[1]
            alone.append(solve_alone(mu[k:k + 1], 0.25, np.arange(1))[0])
        polished_alone = [_newton_polish(ZONAL, X[k:k + 1]) for k in range(3)]
        original = geodesics._band_solve

        def singular_middle():
            calls = []

            def band_solve(ab, rhs):
                if not calls:
                    ab = ab.copy()
                    if broken == "zero-column":
                        ab[1, 7] = 0.0
                    else:
                        ab[1, 7, 10] = np.nan
                calls.append(1)
                return original(ab, rhs)

            return band_solve

        monkeypatch.setattr(geodesics, "_band_solve", singular_middle())
        steps = solve(mu, 0.25, np.arange(3))
        assert not np.any(np.isfinite(steps[1]))
        for k in (0, 2):
            np.testing.assert_array_equal(steps[k], alone[k])
        monkeypatch.setattr(geodesics, "_band_solve", singular_middle())
        V, landed = _newton_polish(ZONAL, X)
        assert list(landed) == [True, False, True]
        np.testing.assert_array_equal(V[1], X[1])
        for k in (0, 2):
            np.testing.assert_array_equal(V[k], polished_alone[k][0][0])
            assert polished_alone[k][1][0]

    @pytest.mark.parametrize("polish", [_newton_polish, _energy_descent],
                             ids=["newton", "descent"])
    def test_batch_call_budget(self, monkeypatch, polish):
        # the batch solves once per iteration (per trial round in the
        # descent), so it makes as many solves as its slowest member alone,
        # and its harmonic calls keep the per-curve budget of those solves
        X = np.stack([perturbed_equator(shrink=False, seed=seed) for seed in range(30, 35)])
        counts = count_calls(monkeypatch)
        alone = []
        for k in range(X.shape[0]):
            counts.update(sh_sum=0, sh_sum_grad=0, _band_solve=0)
            assert polish(ZONAL, X[k:k + 1])[1][0]
            alone.append(counts["_band_solve"])
        counts.update(sh_sum=0, sh_sum_grad=0, _band_solve=0)
        assert polish(ZONAL, X)[1].all()
        assert counts["_band_solve"] == max(alone)
        if polish is _newton_polish:
            assert counts["sh_sum_grad"] <= 1 + 6 * counts["_band_solve"]
        else:
            assert counts["sh_sum_grad"] <= 1 + 2 * counts["_band_solve"]
            assert counts["sh_sum"] <= 1 + counts["_band_solve"]


def family_f(N=65, n=128):
    """The half-turn loop F: N great circles around horizontal axes."""
    angles = math.pi * np.arange(N) / (N - 1)
    axes = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(N)])
    return [DiscreteClosedCurve(c) for c in circle_points(axes, 0.0, n)]


def family_g(axis, circles=49, points=16, n=128):
    """The stack G(axis): circles from s = -1 to 1 (s = 0 included), closed
    up by point curves along a half great circle from axis back to -axis."""
    stack = circle_points(axis, np.linspace(-1.0, 1.0, circles), n)
    e1, _ = circle_frame(axis)
    leg = [math.cos(a) * axis + math.sin(a) * e1
           for a in math.pi * np.arange(1, points + 1) / (points + 1)]
    return ([DiscreteClosedCurve(c) for c in stack]
            + [DiscreteClosedCurve.point(p, n) for p in leg])


class TestTightenSweepout:
    def test_round_family_f_width(self):
        res = tighten_sweepout(ROUND, family_f(), passes=10)
        assert res.width == pytest.approx(TWO_PI, abs=1e-9)
        assert res.witness is not None
        assert res.witness.length == pytest.approx(TWO_PI, abs=1e-9)
        assert res.witness.residual < 1e-10

    def test_zonal_family_g_width(self):
        res = tighten_sweepout(ZONAL, family_g(POLE), passes=40)
        expected = TWO_PI + 0.1 * FUNK_Y20_POLE
        assert res.width == pytest.approx(expected, abs=1e-9)
        assert res.witness is not None
        assert res.witness.length == pytest.approx(expected, abs=1e-9)

    def test_zonal_family_f_width_is_meridian_level(self):
        res = tighten_sweepout(ZONAL, family_f(), passes=40)
        expected = TWO_PI + 0.1 * FUNK_Y20_EQUATOR
        assert res.width == pytest.approx(expected, abs=1e-4)
        assert res.width <= expected + 1e-9  # passes only descend

    def test_odd_direction_initial_f_width_is_exact(self):
        # uniform sampling of a great circle annihilates odd harmonics, so
        # every member of F has discrete length exactly 2 pi
        g = make_variation(SphericalFunction.harmonic(3, 0), 0.1)
        res = tighten_sweepout(g, family_f(), passes=5)
        assert res.trace[0][1] == pytest.approx(TWO_PI, abs=1e-12)
        assert res.width <= TWO_PI + 1e-12

    def test_trace_is_monotone(self):
        res = tighten_sweepout(ZONAL, family_f(N=9, n=32), passes=20)
        iterations = [row[0] for row in res.trace]
        widths = [row[1] for row in res.trace]
        assert iterations == list(range(len(iterations)))
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))

    def test_mixed_vertex_counts_rejected(self):
        a = DiscreteClosedCurve(circle_points(POLE, 0.0, 32))
        b = DiscreteClosedCurve(circle_points(POLE, 0.0, 34))
        with pytest.raises(ValueError):
            tighten_sweepout(ROUND, [a, b], passes=1)

    def test_odd_vertex_count_rejected(self):
        # the two parity classes of a Birkhoff pass tile the edges only for
        # an even vertex count
        curves = [DiscreteClosedCurve(circle_points(POLE, 0.0, 33))]
        with pytest.raises(ValueError):
            tighten_sweepout(ROUND, curves, passes=1)


class TestFamilyPool:
    @pytest.mark.parametrize("g, n", [
        (ZONAL, 32),
        (ROUND, 32),
        (ODD, 64),
    ], ids=["zonal", "round", "odd"])
    def test_no_family_while_a_seed_survives(self, g, n):
        report = estimate_systole(g, n=n)
        tags = [tag for tag, _ in report.candidates]
        assert tags and all(tag.startswith("geodesic-") for tag in tags)
        assert report.systole == report.witness.length

    @pytest.mark.parametrize("g", [ZONAL, MIXED], ids=["zonal", "mixed"])
    def test_funk_circle_seeds_start_at_the_signed_funk_axes(self, monkeypatch, g):
        import systolab.geodesics as geodesics

        batches = []

        def capturing(g, X, *args):
            batches.append(X.copy())
            return _shorten_batch(g, X, *args)

        monkeypatch.setattr(geodesics, "_shorten_batch", capturing)
        report = estimate_systole(g, n=32)
        assert len(batches) == 1
        np.testing.assert_array_equal(
            batches[0][:2], circle_points(find_signed_funk_axes(g.f), 0.0, 32)
        )
        assert batches[0].shape[0] == 2 + geodesics.SEED_CIRCLES
        assert [tag for tag, _ in report.candidates][:2] == [
            "geodesic-funk-circle0", "geodesic-funk-circle1",
        ]

    def test_collapsed_seeds_are_shortened_again_with_short_chunks(self, monkeypatch):
        # the odd direction at t = 0.15 has curvature min -0.6, so its seed
        # circles slide POLISH_EVERY_NONPOSITIVE passes before a polish, and
        # at n = 32 all of them collapse (no Funk axis gives a seed).  With a
        # polish every POLISH_EVERY passes, seeds 12 and 15 land on the
        # geodesic 6.2738144164, which Newton also reaches from the great
        # circle at the argmin axis of the second-order length
        import systolab.geodesics as geodesics

        chunks = []

        def capturing(g, X, polish_every):
            chunks.append(polish_every)
            return _shorten_batch(g, X, polish_every)

        monkeypatch.setattr(geodesics, "_shorten_batch", capturing)
        g = make_variation(SphericalFunction.harmonic(3, 0), 0.15)
        with pytest.warns(CurvatureNotPositive):
            report = estimate_systole(g, n=32)
        assert chunks == [POLISH_EVERY_NONPOSITIVE, POLISH_EVERY]
        assert report.systole == pytest.approx(6.273814416397727, rel=0.0, abs=1e-12)
        assert report.systole == report.witness.length
        tags = [tag for tag, _ in report.candidates]
        assert tags and all(tag.startswith("geodesic-seed") for tag in tags)
        # the first attempt's seeds all collapsed, which adds no line
        assert report.warnings == [f"metric has curvature min {report.curvature_min:.4e} <= 0"]

    def test_steep_y50_row_reports_a_seed_geodesic(self):
        # curvature min -2.43: every seed collapses in the long chunks, and
        # the retry lands 2.7e-3 below 2 pi, the length of every great circle
        g = make_variation(SphericalFunction.harmonic(5, 0), 0.1)
        with pytest.warns(CurvatureNotPositive):
            report = estimate_systole(g, n=32)
        assert report.systole <= 6.2805
        assert report.systole == report.witness.length
        assert all(tag.startswith("geodesic-seed") for tag, _ in report.candidates)

    @pytest.mark.parametrize("first, tried", [
        (POLISH_EVERY_NONPOSITIVE, [POLISH_EVERY_NONPOSITIVE, POLISH_EVERY]),
        (POLISH_EVERY, [POLISH_EVERY]),
    ], ids=["long-chunks", "short-chunks"])
    def test_report_warnings_come_from_the_attempt_that_landed(self, monkeypatch, first, tried):
        # a retry follows only the long chunks, and its report drops the
        # lines of the attempt that left nothing; a raise carries them all
        import systolab.geodesics as geodesics

        real = geodesics._seed_geodesics
        landing = {POLISH_EVERY}

        def attempt(g, axes, tags, n, polish_every, warnings_log):
            warnings_log.append(f"attempt with chunks of {polish_every}")
            if polish_every not in landing:
                return []
            return real(g, axes, tags, n, polish_every, warnings_log)

        monkeypatch.setattr(geodesics, "_seed_geodesics", attempt)
        monkeypatch.setattr(geodesics, "_polish_every", lambda g: first)
        report = estimate_systole(ZONAL, n=32)
        assert report.warnings == [f"attempt with chunks of {POLISH_EVERY}"]
        assert report.systole == report.witness.length
        landing.clear()
        with pytest.raises(SystolabError) as raised:
            estimate_systole(ZONAL, n=32)
        lines = str(raised.value).splitlines()
        assert lines[1:] == [f"attempt with chunks of {chunk}" for chunk in tried]

    def test_odd_direction_seeds_survive_at_coarse_resolution(self):
        # ODD has positive curvature, so its seed circles are polished after
        # POLISH_EVERY passes, before most of them collapse at n = 32: they
        # find a geodesic below the great-circle level 6.283130449237229,
        # at the value that estimate_systole(ODD, n=64) gives
        report = estimate_systole(ODD, n=32)
        assert report.witness is not None
        assert report.witness.length == report.systole
        won = [tag for tag, length in report.candidates if length == report.systole]
        assert won and all(tag.startswith("geodesic-seed") for tag in won)
        assert report.systole <= 6.283130449237229 - 9e-4
        assert report.systole == pytest.approx(6.282131423534837, rel=0.0, abs=5e-5)

    @pytest.mark.parametrize("g", [ROUND, ODD], ids=["round", "odd"])
    @pytest.mark.parametrize("shape", [dict(n=33), dict(n=30)], ids=["n33", "n30"])
    def test_shape_is_checked_without_a_family(self, g, shape):
        with pytest.raises(ValueError):
            estimate_systole(g, **shape)


class TestEstimateSystole:
    def test_round_metric(self):
        rep = estimate_systole(ROUND)
        assert rep.systole == pytest.approx(TWO_PI, abs=1e-6)
        assert rep.witness is not None
        assert rep.witness.residual < 1e-8
        assert rep.curvature_min == pytest.approx(1.0, abs=1e-9)
        assert rep.warnings == []
        assert all(length > COLLAPSE_THRESHOLD for _, length in rep.candidates)

    def test_zonal_positive_t(self):
        rep = estimate_systole(ZONAL)
        # the equator is an exact geodesic with constant w, so the estimate
        # lands on 2 pi + t Funk(pole) to near machine precision
        assert rep.systole == pytest.approx(TWO_PI + 0.1 * FUNK_Y20_POLE, abs=1e-9)
        assert rep.witness is not None
        assert rep.witness.length == pytest.approx(rep.systole, abs=1e-9)

    def test_zonal_negative_t(self):
        g = make_variation(SphericalFunction.harmonic(2, 0), -0.1)
        rep = estimate_systole(g)
        linear = TWO_PI - 0.1 * FUNK_Y20_EQUATOR
        # the short geodesics live near the equatorial Funk-max axes; the
        # true systole undercuts the linear value at second order
        assert rep.systole <= linear + 1e-9
        assert rep.systole == pytest.approx(linear, abs=2e-3)

    def test_odd_direction_stays_below_two_pi(self):
        g = make_variation(SphericalFunction.harmonic(3, 0), 0.05)
        rep = estimate_systole(g)
        assert rep.systole <= TWO_PI + 1e-10
        assert rep.systole == pytest.approx(TWO_PI, abs=5e-3)

    def test_dense_direction_keeps_its_shortest_seed_geodesic(self):
        # the second degree-6 draw of default_rng(12345), scaled to
        # sup|f| = 0.5, at t = +0.2 (curvature min about -2.5).  Seed circles
        # 18 and 19 reach the shortest geodesic only by sliding before their
        # first polish: a polish after 10 passes catches them at the longer
        # geodesics 6.2378 and 6.2577, and the row reports 6.1710.
        from systolab.harmonics import sh_size
        from systolab.metric import sup_norm

        rng = np.random.default_rng(12345)
        for degree in (3, 3, 4, 4, 5, 5, 6, 6):
            coeffs = rng.standard_normal(sh_size(degree))
        coeffs[0] = 0.0
        f = SphericalFunction(coeffs)
        with pytest.warns(CurvatureNotPositive):
            rep = estimate_systole(make_variation(f * (0.5 / sup_norm(f)), 0.2))
        assert rep.systole == pytest.approx(6.158670885175349, rel=0.0, abs=1e-12)
        won = {tag for tag, length in rep.candidates if length == rep.systole}
        assert won and all(tag.startswith("geodesic-seed") for tag in won)

    @pytest.mark.parametrize("t, parallel", [
        (0.02, 6.2438658506),
        (0.05, 6.1862076744),
        (0.1, 6.0945904351),
    ])
    def test_systole_is_a_closed_geodesic(self, t, parallel):
        # for Y10+Y20 at t > 0 the systole is the critical parallel, of the
        # exact length given (Clairaut); the discrete geodesic lies above it
        # by the n^-2 bias, and the report never undercuts it
        from systolab.experiments import default_directions

        rep = estimate_systole(make_variation(default_directions()["Y10+Y20"], t))
        assert rep.systole == rep.witness.length
        assert 0.0 <= rep.systole - parallel <= 1e-5

    def test_seed_witness_reports_its_passes(self):
        g = make_variation(SphericalFunction.harmonic(2, 0), -0.1)
        rep = estimate_systole(g, n=32)
        won = {tag for tag, length in rep.candidates
               if tag.startswith("geodesic-") and length == rep.witness.length}
        assert won and all(tag.startswith("geodesic-seed") for tag in won)
        assert rep.witness.passes > 0

    def test_dropped_seeds_are_reported(self, monkeypatch):
        import systolab.geodesics as geodesics

        monkeypatch.setattr(geodesics, "SEED_PASSES", 3)
        report = estimate_systole(ZONAL, n=32)
        dropped = [line for line in report.warnings if "still sliding" in line]
        assert dropped
        kept = {tag for tag, _ in report.candidates}
        for line in dropped:
            tag = line.split()[0]
            assert tag.startswith(("seed", "funk-circle"))
            assert f"geodesic-{tag}" not in kept
            assert "after 3 passes" in line and "residual" in line

    def test_only_frozen_seeds_are_kept(self):
        # one threshold decides: a curve that froze (residual below
        # FROZEN_RESIDUAL) is kept, a collapsed one is dropped silently, and
        # one still moving, however slowly, is dropped with a line
        log = []
        kept = _landed(["seed0", "seed1", "seed2", "seed3"],
                       np.array([4e-11, 1e-8, 0.0, FROZEN_RESIDUAL]),
                       np.array([False, False, True, False]),
                       np.array([61, 1500, 20, 1500]), log)
        assert kept == [0]
        assert log == [
            "seed1 dropped: still sliding after 1500 passes (residual 1.00e-08)",
            "seed3 dropped: still sliding after 1500 passes (residual 1.00e-10)",
        ]

    def test_report_shape(self):
        rep = estimate_systole(ROUND)
        assert isinstance(rep, SystoleReport)
        payload = rep.to_json()
        assert set(payload) == {
            "systole", "witness_length", "candidates", "curvature_min", "warnings",
        }
        assert payload["systole"] == rep.systole
        # the round metric has no signed Funk axes, so only seeds compete
        tags = [tag for tag, _ in rep.candidates]
        assert tags and all(tag.startswith("geodesic-seed") for tag in tags)
        tags = [tag for tag, _ in estimate_systole(ZONAL, n=32).candidates]
        for kept in ("geodesic-funk-circle", "geodesic-seed"):
            assert any(tag.startswith(kept) for tag in tags), kept
        for dropped in ("family-", "geodesic-F", "geodesic-G", "grid"):
            assert not any(dropped in tag for tag in tags), dropped


def single_resolution_candidates(g, n):
    """The seed pool shortened at n alone: (tag, length) of every seed that landed."""
    axes = np.random.default_rng(0).normal(size=(SEED_CIRCLES, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    tags = [f"seed{k}" for k in range(SEED_CIRCLES)]
    signed = None if g.is_round else find_signed_funk_axes(g.f)
    if signed is not None:
        axes = np.concatenate([np.asarray(signed), axes])
        tags = [f"funk-circle{k}" for k in range(len(signed))] + tags
    lengths, residuals, collapsed, _ = _shorten_batch(
        g, circle_points(axes, 0.0, n), _polish_every(g)
    )
    return [(f"geodesic-{tag}", float(length))
            for tag, length, residual, gone in zip(tags, lengths, residuals, collapsed)
            if not gone and residual < FROZEN_RESIDUAL]


class TestNestedResolutions:
    @pytest.mark.parametrize("n, coarse", [
        (32, 32), (64, 64), (96, 96), (128, 64), (130, 130), (192, 96), (256, 64),
    ])
    def test_coarse_vertex_count(self, n, coarse):
        assert _coarse_vertices(n) == coarse

    def test_one_row_per_length_cluster(self):
        # sorted: 1.0 (row 3), 1.0 + 5e-10 (row 1), 1.0 + 1.2e-9 (row 4) chain
        # into one cluster; 2.0 (row 0) and 2.0 + 2e-9 (row 2) are two more
        lengths = np.array([2.0, 1.0 + 5e-10, 2.0 + 2e-9, 1.0, 1.0 + 1.2e-9])
        assert _distinct(lengths, [0, 1, 2, 3, 4]) == [0, 1, 2]
        assert _distinct(lengths, [4, 1, 3]) == [1]
        # without row 1 the link is gone: 1.2e-9 apart is two geodesics
        assert _distinct(lengths, [4, 3]) == [3, 4]
        assert _distinct(lengths, []) == []

    @pytest.mark.parametrize("g", [ZONAL, MIXED, Y30], ids=["zonal", "mixed", "y30"])
    def test_nested_systole_equals_the_single_resolution_one(self, g):
        single = single_resolution_candidates(g, 128)
        report = estimate_systole(g)
        assert report.systole == pytest.approx(
            min(length for _, length in single), rel=0.0, abs=1e-12
        )
        assert report.systole == report.witness.length
        # one candidate per distinct geodesic, each tagged by a seed that landed
        lengths = sorted(length for _, length in report.candidates)
        assert all(b - a > SAME_LENGTH for a, b in zip(lengths, lengths[1:]))
        assert {tag for tag, _ in report.candidates} <= {tag for tag, _ in single}
        assert len(report.candidates) < len(single)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("g", [ZONAL, MIXED, Y30], ids=["zonal", "mixed", "y30"])
    def test_single_resolution_below_the_coarse_level(self, g, n):
        assert estimate_systole(g, n=n).candidates == single_resolution_candidates(g, n)

    def test_prolonged_equator_is_a_discrete_geodesic(self):
        refined = _refine(ZONAL, circle_points(POLE, 0.0, 64)[None], 128)[0]
        assert refined.shape == (128, 3)
        assert grad_norm(ZONAL, refined) < 1e-11
        assert _batch_metric_lengths(ZONAL, refined[None])[0] == pytest.approx(
            TWO_PI + 0.1 * FUNK_Y20_POLE, rel=0.0, abs=1e-12
        )

    def test_prolonged_seed_geodesic_lands_under_newton(self):
        X = circle_points(find_signed_funk_axes(MIXED.f)[:1], 0.0, 64)
        _, residuals, collapsed, _ = _shorten_batch(MIXED, X, POLISH_EVERY)
        assert not collapsed[0] and residuals[0] < 1e-10
        prolonged = _prolong(X[:1])[0]
        np.testing.assert_array_equal(prolonged[0::2], X[0])
        assert grad_norm(MIXED, prolonged) > 1e-6
        V, landed = _newton_polish(MIXED, prolonged[None])
        assert landed[0]
        assert grad_norm(MIXED, V[0]) < 1e-11
        assert _polygon_energy(MIXED, V[0]) <= _polygon_energy(MIXED, prolonged)

    @pytest.mark.parametrize("pairs", [[(3, 0, 1.0)], [(1, 0, 1.0), (2, 0, 1.0)]],
                             ids=["y30", "y10+y20"])
    def test_coarse_seeds_are_polished_once(self, monkeypatch, pairs):
        # sweep rows at t = 0.1, where the curvature is positive: every seed
        # still moving after the first 10 passes lands in the first polish
        # of the 64-vertex batch, so no later chunk of passes is spent on
        # seeds that only collapse in it
        import systolab.geodesics as geodesics

        polished = []
        original = geodesics._polish

        def polish(g, X):
            polished.append(X.shape[1])
            return original(g, X)

        monkeypatch.setattr(geodesics, "_polish", polish)
        g = make_variation(SphericalFunction.from_pairs(pairs), 0.1)
        estimate_systole(g)
        assert polished.count(64) == 1

    def test_dropped_seeds_are_reported_at_both_levels(self, monkeypatch):
        # with 3 passes a level, every seed but the funk-circle0 equator (a
        # geodesic of ZONAL at any n) is still sliding at 64 vertices.  The
        # equator is then refined to a tilted circle, which is still sliding
        # at 128 vertices after 3 more passes
        import systolab.geodesics as geodesics

        monkeypatch.setattr(geodesics, "SEED_PASSES", 3)
        tilt = np.array([math.sin(0.3), 0.0, math.cos(0.3)])
        monkeypatch.setattr(geodesics, "_refine",
                            lambda g, V, n: np.stack([circle_points(tilt, 0.0, n)] * len(V)))
        # no seed is left, and ZONAL's curvature is positive, so there is no
        # retry: the error carries the warning lines
        with pytest.raises(SystolabError) as raised:
            estimate_systole(ZONAL, n=128)
        message = str(raised.value)
        dropped = {line.split()[0]: line for line in message.splitlines()
                   if "still sliding" in line}
        seeds = [f"seed{k}" for k in range(SEED_CIRCLES)]
        assert set(seeds) <= set(dropped)
        assert all("after 3 passes" in dropped[tag] for tag in seeds)
        # one pass froze the equator at 64 vertices, 3 more slid it at 128
        assert "after 4 passes" in dropped["funk-circle0"]
        assert all("residual" in line for line in dropped.values())
        assert not any(f"geodesic-{tag}" in message for tag in dropped)


@st.composite
def odd_directions(draw):
    """Band-limited functions with only odd-degree terms."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pairs = []
    for l in (1, 3, 5):
        for m in range(-l, l + 1):
            pairs.append((l, m, float(rng.normal())))
    return SphericalFunction.from_pairs(pairs)


class TestOddWidthProperty:
    @given(odd_directions(), st.floats(0.01, 0.2))
    @settings(max_examples=15, deadline=None)
    def test_initial_f_width_exact_for_odd_directions(self, f, scale):
        from systolab.metric import sup_norm

        s = sup_norm(f)
        if s == 0.0:
            return
        g = make_variation(f, scale * 0.5 / s)
        # the family maximum before any pass, tighten_sweepout's trace[0][1]
        width = _batch_metric_lengths(g, np.stack([c.vertices for c in family_f(N=9, n=32)])).max()
        assert width == pytest.approx(TWO_PI, abs=1e-11)


class TestMonotonicityCounter:
    def test_counter_still_zero(self):
        # this must run after everything above exercised the engine
        assert length_increase_violations() == 0
