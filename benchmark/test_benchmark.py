"""Self-tests of the benchmark: the reference evaluator and the row checks.

    python3 -m pytest benchmark -q
"""

import math

import numpy as np
import pytest

import checks
import reference as ref
import workloads

T = 0.05


def unit_points(count, seed=0):
    p = np.random.default_rng(seed).normal(size=(count, 3))
    p = p / np.linalg.norm(p, axis=1, keepdims=True)
    p[:2] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    return p


CLOSED_FORMS = {
    (0, 0): lambda x, y, z: np.full_like(z, 1.0 / math.sqrt(4 * math.pi)),
    (1, -1): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * y,
    (1, 0): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * z,
    (1, 1): lambda x, y, z: math.sqrt(3 / (4 * math.pi)) * x,
    (2, -2): lambda x, y, z: math.sqrt(15 / (4 * math.pi)) * x * y,
    (2, 0): lambda x, y, z: math.sqrt(5 / (16 * math.pi)) * (3 * z * z - 1),
    (2, 1): lambda x, y, z: math.sqrt(15 / (4 * math.pi)) * x * z,
    (2, 2): lambda x, y, z: math.sqrt(15 / (16 * math.pi)) * (x * x - y * y),
}


@pytest.mark.parametrize("lm", sorted(CLOSED_FORMS))
def test_real_harmonics_match_closed_forms(lm):
    p = unit_points(200)
    want = CLOSED_FORMS[lm](p[:, 0], p[:, 1], p[:, 2])
    np.testing.assert_allclose(ref.real_harmonic(*lm, p), want, rtol=0, atol=1e-14)


def test_reference_quadrature_makes_the_basis_orthonormal():
    q = ref.Quadrature(2 * 8 + 2)
    basis = np.column_stack([ref.real_harmonic(l, m, q.nodes)
                             for l in range(9) for m in range(-l, l + 1)])
    gram = basis.T @ (q.weights[:, None] * basis)
    np.testing.assert_allclose(gram, np.eye(81), atol=1e-12)


def test_reference_agrees_with_the_package_basis():
    from systolab.harmonics import sh_basis

    p = unit_points(300, seed=1)
    basis = sh_basis(p, 8)
    for l in range(9):
        for m in range(-l, l + 1):
            np.testing.assert_allclose(ref.real_harmonic(l, m, p), basis[:, l * l + l + m],
                                       rtol=0, atol=1e-14)


def test_funk_eigenvalues_and_great_circle_integral():
    assert ref.funk_coeffs(np.eye(9)[6])[6] == pytest.approx(-math.pi, abs=1e-15)
    assert ref.funk_coeffs(np.eye(25)[20])[20] == pytest.approx(0.75 * math.pi, abs=1e-15)
    c = np.random.default_rng(2).normal(size=49)
    u = np.array([0.2, -0.4, 0.9]) / math.sqrt(1.01)
    circle = ref.great_circle_points(u, 64)
    direct = float(np.mean(ref.evaluate(c, circle))) * ref.TWO_PI
    assert ref.funk(c, u) == pytest.approx(direct, abs=1e-13)


def test_dense_max_finds_the_pole_value_of_y20():
    c = workloads.coeffs_from_pairs([(2, 0, 1.0)])
    assert ref.dense_max_abs(c) == pytest.approx(math.sqrt(5 / (4 * math.pi)), abs=1e-13)


# A synthetic systole row with known answers: for the zonal direction Y20 the
# equator is a closed geodesic by symmetry, and its 128-gon is a discrete one.
Y20 = workloads.coeffs_from_pairs([(2, 0, 1.0)])


def equator(n=128):
    ang = 2 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang), np.zeros(n)])


def sweep_case():
    verts = equator()
    length = ref.polygon_length(Y20, T, verts)
    area = 4 * math.pi + T * T  # |Y20|^2 = 1
    row = {"coeffs": Y20, "t": T}
    out = {"area": area, "systole": length, "ratio": area / length**2,
           "witness_length": length, "witness": verts}
    return row, out


def test_a_genuine_systole_row_passes():
    row, out = sweep_case()
    assert checks.sweep_row(row, out) == {}


def test_a_systole_raised_by_1e_3_is_rejected():
    row, out = sweep_case()
    out["systole"] += 1e-3
    out["ratio"] = out["area"] / out["systole"] ** 2
    assert "witness_gap" in checks.sweep_row(row, out)


def test_a_systole_above_two_pi_is_rejected():
    assert checks.systole_bound(2 * math.pi + 2e-4) is not None


def test_a_ratio_below_the_proposition_bound_is_rejected():
    row, out = sweep_case()
    out["ratio"] = 1 / math.pi
    assert "ratio_bound" in checks.sweep_row(row, out)


def test_an_area_off_by_1e_9_is_rejected():
    row, out = sweep_case()
    out["area"] += 1e-9
    assert "area_law" in checks.sweep_row(row, out)


def test_a_witness_length_off_by_1e_9_is_rejected():
    row, out = sweep_case()
    out["witness_length"] += 1e-9
    assert "witness_length" in checks.sweep_row(row, out)


def test_a_witness_that_is_not_a_geodesic_is_rejected():
    row, out = sweep_case()
    verts = out["witness"].copy()
    verts[5] = verts[5] + np.array([0.0, 0.0, 1e-6])
    verts[5] /= np.linalg.norm(verts[5])
    out["witness"] = verts
    out["witness_length"] = out["systole"] = ref.polygon_length(Y20, T, verts)
    assert "first_variation" in checks.sweep_row(row, out)


def metric_case():
    c = np.random.default_rng(3).normal(size=25)
    c[0] = 0.0
    c /= ref.dense_max_abs(c)
    u = np.array([0.6, 0.0, 0.8])
    circle = ref.great_circle_points(u, 256)
    length = float(np.mean(ref.factor(c, T, circle))) * ref.TWO_PI
    q = ref.Quadrature(20)
    area = q.integrate(ref.factor(c, T, q.nodes) ** 2)
    row = {"coeffs": c, "t": T, "u": u}
    out = {"area": area, "funk": ref.funk(c, u), "length": length,
           "accepted_inside": True, "refused_outside": True}
    return row, out


def test_a_genuine_metric_row_passes():
    row, out = metric_case()
    assert checks.metric_row(row, out) == {}


def test_a_t_past_the_bound_that_is_accepted_is_rejected():
    row, out = metric_case()
    out["refused_outside"] = False
    assert "admissibility" in checks.metric_row(row, out)


def test_a_t_inside_the_bound_that_is_refused_is_rejected():
    row, out = metric_case()
    out["accepted_inside"] = False
    assert "admissibility" in checks.metric_row(row, out)


def test_a_great_circle_length_off_by_1e_9_is_rejected():
    row, out = metric_case()
    out["length"] += 1e-9
    assert "length_identity" in checks.metric_row(row, out)


def test_a_metric_area_off_by_1e_9_is_rejected():
    row, out = metric_case()
    out["area"] -= 1e-9
    assert "area_law" in checks.metric_row(row, out)


def test_z_reflection_signs():
    c = np.random.default_rng(4).normal(size=49)
    p = unit_points(50, seed=5)
    mirrored = p * np.array([1.0, 1.0, -1.0])
    np.testing.assert_allclose(ref.evaluate(c * ref.z_reflection_signs(6), p),
                               ref.evaluate(c, mirrored), atol=1e-13)


def test_typical_counts_each_row_of_the_round_once():
    import run

    # two rounds of a cheap row and a dear row; the dear row is slowed once
    records = [{"row_s": 1.0}, {"row_s": 10.0}, {"row_s": 1.0}, {"row_s": 30.0},
               {"row_s": 1.0}, {"row_s": 10.0}]
    assert run.typical(records, "row_s", 2) == pytest.approx((1.0 + 10.0) / 2)
    # a row that raised has no time and is left out
    assert run.typical([{"row_s": 2.0}, {}], "row_s", 2) == 2.0


def test_the_speed_probe_takes_a_few_milliseconds():
    import speed

    assert 0.0 < speed.probe() < 1.0
