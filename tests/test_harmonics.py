"""Tests for the spherical-harmonic basis, quadrature, and decompositions."""

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from systolab.errors import BandTooLow
from systolab.harmonics import (
    DEFAULT_DEGREE,
    FOUR_PI,
    SphereQuadrature,
    SphericalFunction,
    build_quadrature,
    integrate,
    laplacian,
    mean_zero_decompose,
    normalize_points,
    parity_decompose,
    sh_basis,
    sh_degrees,
    sh_index,
    sh_size,
    sh_sum,
    sh_sum_grad,
    _gauss_legendre,
    _latitude_interpolant,
    _latitude_tables,
)


def random_unit_points(rng, n):
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def reference_real_harmonic(l, m, points):
    """Independent oracle built on scipy's complex spherical harmonics."""
    from scipy import special

    p = np.asarray(points, dtype=float).reshape(-1, 3)
    theta = np.arccos(np.clip(p[:, 2], -1.0, 1.0))
    phi = np.arctan2(p[:, 1], p[:, 0])
    if hasattr(special, "sph_harm_y"):
        complex_val = special.sph_harm_y(l, abs(m), theta, phi)
    else:  # older scipy spells it sph_harm(m, l, azimuth, polar)
        complex_val = special.sph_harm(abs(m), l, phi, theta)
    sign = (-1.0) ** abs(m)
    if m > 0:
        return math.sqrt(2.0) * sign * complex_val.real
    if m < 0:
        return math.sqrt(2.0) * sign * complex_val.imag
    return complex_val.real


class TestIndexing:
    def test_size_and_index_roundtrip(self):
        assert sh_size(0) == 1
        assert sh_size(8) == 81
        seen = set()
        for l in range(9):
            for m in range(-l, l + 1):
                k = sh_index(l, m)
                assert 0 <= k < sh_size(8)
                seen.add(k)
        assert len(seen) == 81

    def test_degrees_table(self):
        ls = sh_degrees(3)
        assert list(ls) == [0] + [1] * 3 + [2] * 5 + [3] * 7

    def test_index_rejects_bad_order(self):
        with pytest.raises(ValueError):
            sh_index(2, 3)


class TestBasisValues:
    def test_lowest_harmonics_closed_form(self):
        rng = np.random.default_rng(7)
        p = random_unit_points(rng, 40)
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        Y = sh_basis(p, 2)
        np.testing.assert_allclose(Y[:, sh_index(0, 0)], 1.0 / math.sqrt(FOUR_PI))
        c1 = math.sqrt(3.0 / FOUR_PI)
        np.testing.assert_allclose(Y[:, sh_index(1, 0)], c1 * z, atol=1e-14)
        np.testing.assert_allclose(Y[:, sh_index(1, 1)], c1 * x, atol=1e-14)
        np.testing.assert_allclose(Y[:, sh_index(1, -1)], c1 * y, atol=1e-14)
        np.testing.assert_allclose(
            Y[:, sh_index(2, 0)],
            0.25 * math.sqrt(5.0 / math.pi) * (3.0 * z**2 - 1.0),
            atol=1e-13,
        )

    def test_pole_values(self):
        pole = np.array([[0.0, 0.0, 1.0]])
        Y = sh_basis(pole, 2)
        assert Y[0, sh_index(1, 0)] == pytest.approx(0.4886025119029199, abs=1e-15)
        assert Y[0, sh_index(2, 0)] == pytest.approx(0.6307831305050401, abs=1e-15)
        # only m = 0 harmonics survive at the pole
        assert Y[0, sh_index(2, 1)] == 0.0
        assert Y[0, sh_index(2, -2)] == 0.0

    @pytest.mark.parametrize(
        "l,m",
        [(3, 0), (4, 2), (5, -3), (6, 6), (8, -7), (8, 1),
         (16, -9), (24, 17), (32, 20), (32, -32)],
    )
    def test_against_scipy_complex_harmonics(self, l, m):
        rng = np.random.default_rng(100 + l * 10 + m)
        p = random_unit_points(rng, 60)
        Y = sh_basis(p, max(l, 8))
        np.testing.assert_allclose(
            Y[:, sh_index(l, m)], reference_real_harmonic(l, m, p), atol=1e-12
        )

    def test_antipodal_parity(self):
        rng = np.random.default_rng(3)
        p = random_unit_points(rng, 25)
        Y_plus = sh_basis(p, 6)
        Y_minus = sh_basis(-p, 6)
        signs = (-1.0) ** sh_degrees(6)
        np.testing.assert_allclose(Y_minus, Y_plus * signs, atol=1e-13)


class TestGradients:
    def test_gradient_is_tangential(self):
        rng = np.random.default_rng(11)
        p = random_unit_points(rng, 30)
        _, dY = sh_basis(p, 8, grad=True)
        radial = np.einsum("nik,ni->nk", dY, p)
        np.testing.assert_allclose(radial, 0.0, atol=1e-12)

    def test_gradient_matches_great_circle_difference(self):
        rng = np.random.default_rng(12)
        p = random_unit_points(rng, 20)
        v = rng.standard_normal((20, 3))
        v -= np.einsum("ni,ni->n", v, p)[:, None] * p
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        eps = 1e-5
        plus = np.cos(eps) * p + np.sin(eps) * v
        minus = np.cos(eps) * p - np.sin(eps) * v
        Yp = sh_basis(plus, 8)
        Ym = sh_basis(minus, 8)
        fd = (Yp - Ym) / (2.0 * eps)
        _, dY = sh_basis(p, 8, grad=True)
        directional = np.einsum("nik,ni->nk", dY, v)
        np.testing.assert_allclose(directional, fd, atol=1e-6)

    def test_gradient_vanishes_for_constant(self):
        rng = np.random.default_rng(13)
        p = random_unit_points(rng, 10)
        _, dY = sh_basis(p, 0, grad=True)
        np.testing.assert_allclose(dY, 0.0, atol=1e-15)


def coefficient_patterns(L, rng):
    """Coefficient vectors of degree L with the zero patterns sh_sum skips."""
    dense = rng.standard_normal(sh_size(L))
    ls = sh_degrees(L)
    ms = np.concatenate([np.arange(-l, l + 1) for l in range(L + 1)])
    return {
        "zero": np.zeros(sh_size(L)),
        "single order": np.where(np.abs(ms) == 1, dense, 0.0),
        "zero +-m columns": np.where(np.abs(ms) == min(L, 2), 0.0, dense),
        "zero top degrees": np.where(ls < max(L - 1, 1), dense, 0.0),
        "sine side only": np.where(ms < 0, dense, 0.0),
        "dense": dense,
    }


class TestCoefficientSums:
    @pytest.mark.parametrize("L", [0, 1, 4, 8, 16])
    def test_sums_match_basis(self, L):
        rng = np.random.default_rng(21 + L)
        p = random_unit_points(rng, 200)
        Y, dY = sh_basis(p, L, grad=True)
        for name, c in coefficient_patterns(L, rng).items():
            vals, grads = sh_sum_grad(c, p)
            np.testing.assert_allclose(sh_sum(c, p), Y @ c, rtol=0, atol=1e-13, err_msg=name)
            np.testing.assert_allclose(vals, Y @ c, rtol=0, atol=1e-13, err_msg=name)
            np.testing.assert_allclose(grads, dY @ c, rtol=0, atol=1e-13, err_msg=name)

    def test_values_agree_bit_for_bit(self):
        # the Birkhoff half-pass takes its starting lengths from the values
        # of sh_sum_grad and later compares them with sh_sum values
        rng = np.random.default_rng(29)
        p = random_unit_points(rng, 64)
        for c in coefficient_patterns(8, rng).values():
            np.testing.assert_array_equal(sh_sum(c, p), sh_sum_grad(c, p)[0])


def interpolant_points(rng, L):
    """Seeded unit points, both poles, and one point on each of the L + 1 Gauss latitudes."""
    z = _gauss_legendre(L + 1)[0]
    phi = rng.uniform(0.0, 2.0 * math.pi, z.size)
    rho = np.sqrt(1.0 - z * z)
    on_nodes = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    return np.concatenate([random_unit_points(rng, 200), poles, on_nodes])


#: Pinned relative errors (value, gradient) of the latitude interpolant
#: against sh_basis on the draws of TestLatitudeInterpolant.  Its node values
#: of sum_l c_lm * Q_lm grow near the poles with the degree, and so does the
#: rounding carried to the other latitudes.  Measured: at most 4.0e-15 up to
#: degree 13, 4.4e-15 / 9.8e-15 at degrees 14-15, 3.0e-14 / 6.0e-14 at
#: degree 16, 3.2e-13 / 7.2e-13 at 24 and 2.4e-12 / 8.1e-12 at 32.
INTERPOLANT_BOUNDS = {**{L: (1e-14, 1e-14) for L in range(14)},
                      14: (1e-14, 2e-14), 15: (1e-14, 2e-14), 16: (5e-14, 1e-13),
                      24: (5e-13, 1e-12), 32: (5e-12, 1e-11)}


class TestLatitudeInterpolant:
    @pytest.mark.parametrize("L", sorted(INTERPOLANT_BOUNDS))
    def test_matches_basis(self, L):
        rng = np.random.default_rng([41, L])
        c = rng.standard_normal(sh_size(L))
        p = interpolant_points(rng, L)
        Y, dY = sh_basis(p, L, grad=True)
        vals, grads = _latitude_interpolant(c)(p)
        value_bound, gradient_bound = INTERPOLANT_BOUNDS[L]
        assert np.max(np.abs(vals - Y @ c)) <= value_bound * np.max(np.abs(Y @ c))
        assert np.max(np.abs(grads - dY @ c)) <= gradient_bound * np.max(np.abs(dY @ c))

    @pytest.mark.parametrize("L", [1, 8, 16, 32])
    def test_gradients_are_tangential(self, L):
        rng = np.random.default_rng([42, L])
        p = interpolant_points(rng, L)
        _, grads = _latitude_interpolant(rng.standard_normal(sh_size(L)))(p)
        radial = np.einsum("ni,ni->n", grads, p)
        assert np.max(np.abs(radial)) <= 1e-14 * np.max(np.abs(grads))

    @pytest.mark.parametrize("L", [0, 3, 8])
    def test_constant_and_zero(self, L):
        p = interpolant_points(np.random.default_rng([43, L]), L)
        vals, grads = _latitude_interpolant(SphericalFunction.constant(2.5, L).coeffs)(p)
        np.testing.assert_allclose(vals, 2.5, rtol=1e-15)
        np.testing.assert_array_equal(grads, 0.0)
        vals, grads = _latitude_interpolant(np.zeros(sh_size(L)))(p)
        np.testing.assert_array_equal(vals, 0.0)
        np.testing.assert_array_equal(grads, 0.0)

    def test_tables_are_cached_and_read_only(self):
        nodes, weights, table = _latitude_tables(6)
        assert _latitude_tables(6)[2] is table
        np.testing.assert_array_equal(nodes, _gauss_legendre(7)[0])
        for arr in (nodes, weights, table):
            assert not arr.flags.writeable


class TestQuadrature:
    def test_total_mass_is_sphere_area(self):
        q = build_quadrature(18)
        assert q.weights.sum() == pytest.approx(FOUR_PI, abs=1e-12)

    def test_node_count(self):
        q = SphereQuadrature(18)
        assert q.size == 10 * 19

    def test_orthonormal_gram_matrix(self):
        q = build_quadrature(2 * DEFAULT_DEGREE + 2)
        Y = sh_basis(q.nodes, DEFAULT_DEGREE)
        gram = Y.T @ (q.weights[:, None] * Y)
        np.testing.assert_allclose(gram, np.eye(sh_size(DEFAULT_DEGREE)), atol=1e-11)

    def test_integrate_band_limited_exact(self):
        rng = np.random.default_rng(21)
        f = SphericalFunction(rng.standard_normal(sh_size(5)))
        q = build_quadrature(5)
        # only the constant mode has nonzero integral
        expected = f.coeffs[0] * math.sqrt(FOUR_PI)
        assert integrate(f, q) == pytest.approx(expected, abs=1e-12)

    def test_integrate_rejects_low_band(self):
        f = SphericalFunction.harmonic(6, 0)
        with pytest.raises(BandTooLow):
            integrate(f, build_quadrature(5))

    def test_nodes_equal_a_fresh_rule_and_are_read_only(self):
        from numpy.polynomial.legendre import leggauss

        for band in (0, 5, 18, 40):
            q = build_quadrature(band)
            # the quadrature a fresh Gauss-Legendre rule builds
            zs, wz = leggauss(band // 2 + 1)
            nphi = band + 1
            phis = 2.0 * math.pi * np.arange(nphi) / nphi
            sin_t = np.sqrt(1.0 - zs**2)
            nodes = np.column_stack([
                np.outer(sin_t, np.cos(phis)).ravel(),
                np.outer(sin_t, np.sin(phis)).ravel(),
                np.outer(zs, np.ones(nphi)).ravel(),
            ])
            np.testing.assert_array_equal(q.nodes, nodes)
            np.testing.assert_array_equal(q.weights, np.repeat(wz, nphi) * (2.0 * math.pi / nphi))
            np.testing.assert_array_equal(build_quadrature(band).nodes, q.nodes)
        rule = _gauss_legendre(10)
        assert _gauss_legendre(10) is rule
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_projection_recovers_coefficients(self):
        rng = np.random.default_rng(22)
        f = SphericalFunction(rng.standard_normal(sh_size(8)))
        q = build_quadrature(16)
        g = q.project(f(q.nodes), 8)
        np.testing.assert_allclose(g.coeffs, f.coeffs, atol=1e-11)


class TestTransform:
    @pytest.mark.parametrize("band", [0, 1, 5, 18, 40, 56, 104])
    def test_matches_the_basis_matrix(self, band):
        # at every degree L <= band, synthesize is Y @ c and project is
        # Y.T @ (weights * v) for the (nodes x harmonics) basis Y; the degree-L
        # basis is the leading columns of the full-degree one, which is built
        # in blocks of nodes to stay small
        q = build_quadrature(band)
        rng = np.random.default_rng(band)
        degrees = range(band + 1)
        coeffs = np.zeros((sh_size(band), band + 1))
        for L in degrees:
            coeffs[: sh_size(L), L] = rng.standard_normal(sh_size(L))
        values = rng.standard_normal(q.size)
        synth = np.empty((q.size, band + 1))
        proj = np.zeros(sh_size(band))
        for start in range(0, q.size, 256):
            block = slice(start, start + 256)
            Y = sh_basis(q.nodes[block], band)
            synth[block] = Y @ coeffs
            proj += (q.weights[block] * values[block]) @ Y
        for L in degrees:
            got = q.synthesize(coeffs[: sh_size(L), L])
            assert np.max(np.abs(got - synth[:, L])) <= 1e-13 * np.max(np.abs(synth[:, L]))
            got = q.project(values, L).coeffs
            ref = proj[: sh_size(L)]
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("band", [0, 1, 5, 18, 40, 56, 104])
    def test_project_inverts_synthesize_up_to_half_the_band(self, band):
        q = build_quadrature(band)
        rng = np.random.default_rng(band)
        # the round trip through the dense basis drifts by 1.2e-13 at band 104
        for L in range(band // 2 + 1):
            c = rng.standard_normal(sh_size(L))
            back = q.project(q.synthesize(c), L).coeffs
            assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))

    def test_one_read_only_quadrature_per_band(self):
        q = build_quadrature(18)
        assert build_quadrature(18) is q
        assert build_quadrature(19) is not q
        q.synthesize(np.ones(sh_size(6)))
        for arr in (q.nodes, q.weights, *q._tables(6)):
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0


@st.composite
def band_limited_functions(draw, degree_max=DEFAULT_DEGREE):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return SphericalFunction(rng.standard_normal(sh_size(degree_max)))


class TestSphericalFunction:
    def test_constant_value(self):
        f = SphericalFunction.constant(2.5)
        rng = np.random.default_rng(31)
        p = random_unit_points(rng, 5)
        np.testing.assert_allclose(f(p), 2.5, atol=1e-14)

    def test_single_point_returns_scalar(self):
        f = SphericalFunction.harmonic(2, 0)
        val = f(np.array([0.0, 0.0, 1.0]))
        assert isinstance(val, float)
        assert val == pytest.approx(0.6307831305050401, abs=1e-15)

    def test_from_pairs_and_coefficient(self):
        f = SphericalFunction.from_pairs([(2, 1, 1.0), (4, 3, 0.5)])
        assert f.degree == 4
        assert f.coefficient(2, 1) == 1.0
        assert f.coefficient(4, 3) == 0.5
        assert f.coefficient(8, 0) == 0.0
        # harmonic is the one-pair case, band limit and its check included
        h = SphericalFunction.harmonic(3, -2, 0.75, degree_max=5)
        assert h.degree == 5
        np.testing.assert_array_equal(
            h.coeffs, SphericalFunction.from_pairs([(3, -2, 0.75)], 5).coeffs
        )
        with pytest.raises(ValueError, match="degree_max=2 below"):
            SphericalFunction.harmonic(3, 0, degree_max=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SphericalFunction.from_pairs([(2, 0, 1.0), (3, 1, bad)])
        with pytest.raises(ValueError, match="finite"):
            SphericalFunction.constant(bad)

    def test_algebra(self):
        f = SphericalFunction.harmonic(1, 0)
        g = SphericalFunction.harmonic(3, 2)
        h = 2.0 * f - g
        assert h.degree == 3
        assert h.coefficient(1, 0) == 2.0
        assert h.coefficient(3, 2) == -1.0

    @settings(max_examples=25, deadline=None)
    @given(band_limited_functions())
    def test_parseval(self, f):
        q = build_quadrature(2 * f.degree)
        vals = q.synthesize(f.coeffs)
        norm_sq = q.integrate_values(vals**2)
        assert norm_sq == pytest.approx(f.l2_norm() ** 2, rel=1e-10, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(band_limited_functions())
    def test_mean_zero_decompose(self, f):
        lam, f0 = mean_zero_decompose(f)
        q = build_quadrature(f.degree)
        assert integrate(f0, q) == pytest.approx(0.0, abs=1e-10)
        assert lam == pytest.approx(integrate(f, q) / FOUR_PI, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(
            (SphericalFunction.constant(lam).padded(f.degree) + f0).coeffs,
            f.coeffs,
            atol=1e-14,
        )

    @settings(max_examples=25, deadline=None)
    @given(band_limited_functions())
    def test_parity_decompose(self, f):
        even, odd = parity_decompose(f)
        np.testing.assert_allclose((even + odd).coeffs, f.coeffs, atol=0.0)
        rng = np.random.default_rng(41)
        p = random_unit_points(rng, 15)
        np.testing.assert_allclose(even(-p), even(p), atol=1e-12)
        np.testing.assert_allclose(odd(-p), -odd(p), atol=1e-12)

    def test_json_roundtrip(self):
        f = SphericalFunction.from_pairs([(2, 0, 1.25), (3, -2, -0.5)], degree_max=6)
        blob = json.dumps(f.to_json())
        g = SphericalFunction.from_json(json.loads(blob))
        assert g.degree == 6
        np.testing.assert_allclose(g.coeffs, f.coeffs, atol=0.0)

    @pytest.mark.parametrize("obj", [
        {"L": 2, "coef": [[2, 0, 1.0]]},
        {"L": 2, "coeffs": [[2, 0, 1.0]], "l": 3},
        {"degree": 2},
    ])
    def test_json_refuses_unknown_keys(self, obj):
        # a misspelled key must not silently drop the coefficients
        with pytest.raises(ValueError, match="unknown direction keys"):
            SphericalFunction.from_json(obj)

    def test_json_without_band_limit_infers_it(self):
        # as from_pairs does, the band limit is the largest degree given
        f = SphericalFunction.from_json({"coeffs": [[2, 0, 1.0], [3, -1, 0.5]]})
        assert f.degree == 3
        assert f.coefficient(3, -1) == 0.5
        assert SphericalFunction.from_json({"coeffs": [[2, 0, 1.0]]}).degree == 2

    def test_coefficients_are_a_read_only_copy(self):
        source = np.zeros(sh_size(2))
        source[sh_index(2, 0)] = 1.0
        f = SphericalFunction(source)
        assert not f.coeffs.flags.writeable
        assert source.flags.writeable
        source[sh_index(2, 0)] = 5.0
        assert f.coefficient(2, 0) == 1.0
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[0] = 1.0
        # a read-only input is copied too, and the copy is contiguous
        g = SphericalFunction(f.coeffs[::-1])
        assert g.coeffs.flags.c_contiguous and not g.coeffs.flags.writeable
        # so are copies and unpickled functions, and none keeps a sup norm
        from systolab.metric import max_admissible_t

        max_admissible_t(f)
        assert f._sup_norm is not None
        for h in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert not h.coeffs.flags.writeable
            assert h._sup_norm is None
            np.testing.assert_array_equal(h.coeffs, f.coeffs)

    def test_derived_functions_are_immutable_and_correct(self):
        f = SphericalFunction.harmonic(1, 0)
        g = SphericalFunction.harmonic(3, 2)
        derived = {
            "sum": (f + g, {(1, 0): 1.0, (3, 2): 1.0}),
            "difference": (f - g, {(1, 0): 1.0, (3, 2): -1.0}),
            "scaled": (3.0 * g, {(3, 2): 3.0}),
            "negated": (-f, {(1, 0): -1.0}),
            "padded": (f.padded(4), {(1, 0): 1.0}),
            "json": (SphericalFunction.from_json((f + g).to_json()), {(1, 0): 1.0, (3, 2): 1.0}),
        }
        for name, (h, expected) in derived.items():
            assert not h.coeffs.flags.writeable, name
            assert np.count_nonzero(h.coeffs) == len(expected), name
            for (l, m), value in expected.items():
                assert h.coefficient(l, m) == value, name
        assert f.padded(4).degree == 4
        lam, f0 = mean_zero_decompose(SphericalFunction.constant(2.0, degree_max=2) + g.padded(3))
        assert lam == pytest.approx(2.0, rel=1e-15)
        assert f0.coefficient(0, 0) == 0.0 and not f0.coeffs.flags.writeable


class TestLaplacian:
    @pytest.mark.parametrize("l,m", [(0, 0), (1, 1), (2, 0), (5, -4), (8, 8)])
    def test_eigenvalues(self, l, m):
        f = laplacian(SphericalFunction.harmonic(l, m))
        assert f.coefficient(l, m) == pytest.approx(-l * (l + 1.0), abs=0.0)

    def test_commutes_with_parity(self):
        rng = np.random.default_rng(51)
        f = SphericalFunction(rng.standard_normal(sh_size(6)))
        even, odd = parity_decompose(f)
        lhs = laplacian(even) + laplacian(odd)
        np.testing.assert_allclose(lhs.coeffs, laplacian(f).coeffs, atol=0.0)

    def test_matches_finite_difference_on_grid(self):
        # independent 5-point colatitude/longitude stencil on a dense grid
        f = SphericalFunction.from_pairs([(3, 1, 1.0), (5, -2, 0.7)])
        nt, np_ = 400, 400
        thetas = np.linspace(0.15, math.pi - 0.15, nt)
        phis = 2.0 * math.pi * np.arange(np_) / np_
        dt = thetas[1] - thetas[0]
        dp = phis[1] - phis[0]
        T, P = np.meshgrid(thetas, phis, indexing="ij")
        pts = np.stack(
            [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
        )
        F = f(pts.reshape(-1, 3)).reshape(nt, np_)
        lap_fd = np.full_like(F, np.nan)
        inner = slice(1, -1)
        d2t = (F[2:, :] - 2 * F[1:-1, :] + F[:-2, :]) / dt**2
        d1t = (F[2:, :] - F[:-2, :]) / (2 * dt)
        d2p = (np.roll(F, -1, axis=1) - 2 * F + np.roll(F, 1, axis=1)) / dp**2
        lap_fd[inner, :] = (
            d2t
            + (np.cos(T[inner, :]) / np.sin(T[inner, :])) * d1t
            + d2p[inner, :] / np.sin(T[inner, :]) ** 2
        )
        lap_spec = laplacian(f)(pts.reshape(-1, 3)).reshape(nt, np_)
        err = np.nanmax(np.abs(lap_fd[inner, :] - lap_spec[inner, :]))
        assert err < 5e-3


class TestNormalizePoints:
    def test_accepts_small_drift(self):
        p = np.array([1.0 + 5e-10, 0.0, 0.0])
        out = normalize_points(p)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            normalize_points(np.array([1.1, 0.0, 0.0]))
