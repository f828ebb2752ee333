"""Checks of one benchmark row against the reference evaluator.

Each check returns None when the value passes and a one-line reason when it
does not.  The expected values come from `reference`, never from the
systolab function under test.
"""

from __future__ import annotations

import math

import reference as ref

AREA_TOL = 1e-10
LENGTH_IDENTITY_TOL = 1e-10
FUNK_TOL = 1e-10
SYSTOLE_TOL = 1e-4
RATIO_TOL = 1e-6
WITNESS_LENGTH_TOL = 1e-10
WITNESS_GAP_TOL = 1e-9
#: Largest derivative of a witness polygon's length along its normal at a vertex.
FIRST_VARIATION_TOL = 1e-6

#: The check whose failures are the known, reproducible fault of the program:
#: a reported systole that no geodesic found by the estimate attains.
KNOWN_FAULT = "witness_gap"


def _off(name, got, want, tol):
    if not abs(got - want) <= tol:
        return f"{name} {got!r} differs from reference {want!r} by {got - want:.3e} (tol {tol:.0e})"
    return None


def area_law(area_value, coeffs, t):
    """area = 4*pi + t^2 * integral(f^2)."""
    return _off("area", area_value, ref.FOUR_PI + t * t * ref.l2_norm_sq(coeffs), AREA_TOL)


def length_identity(length, coeffs, t, u):
    """Great-circle length = 2*pi + t * Funk(f)(u)."""
    return _off("great-circle length", length, ref.TWO_PI + t * ref.funk(coeffs, u),
                LENGTH_IDENTITY_TOL)


def funk_value(value, coeffs, u):
    return _off("Funk transform", value, ref.funk(coeffs, u), FUNK_TOL)


def admissibility(accepted_inside, refused_outside):
    """t at 0.99 of the reference bound is accepted, at 1.01 of it refused."""
    if not accepted_inside:
        return "t at 0.99 of the admissible bound was refused"
    if not refused_outside:
        return "t at 1.01 of the admissible bound was accepted"
    return None


def systole_bound(systole):
    if not systole <= ref.TWO_PI + SYSTOLE_TOL:
        return f"systole {systole!r} above 2*pi + {SYSTOLE_TOL:.0e}"
    return None


def ratio_bound(ratio, t, l2sq):
    """ratio >= 1/pi + t^2 |f|^2 / (4 pi^2), the proposition's lower bound."""
    floor = 1.0 / math.pi + t * t * l2sq / (4.0 * math.pi**2) - RATIO_TOL
    if not ratio >= floor:
        return f"ratio {ratio!r} below {floor!r}"
    return None


def witness_length(length, coeffs, t, vertices):
    return _off("witness length", length, ref.polygon_length(coeffs, t, vertices),
                WITNESS_LENGTH_TOL)


def first_variation(coeffs, t, vertices):
    value = ref.first_variation(coeffs, t, vertices)
    if not value <= FIRST_VARIATION_TOL:
        return f"witness first variation {value:.3e} above {FIRST_VARIATION_TOL:.0e}"
    return None


def witness_gap(systole, witness_len):
    """The reported systole is the length of the geodesic that witnesses it."""
    gap = witness_len - systole
    if not abs(gap) <= WITNESS_GAP_TOL:
        return f"witness length - systole = {gap:.6e} (tol {WITNESS_GAP_TOL:.0e})"
    return None


def sweep_row(row, out):
    """All checks of one systole row; returns {check name: reason} of failures."""
    coeffs, t = row["coeffs"], row["t"]
    l2sq = ref.l2_norm_sq(coeffs)
    failures = {
        "area_law": area_law(out["area"], coeffs, t),
        "systole_bound": systole_bound(out["systole"]),
        "ratio_bound": ratio_bound(out["ratio"], t, l2sq),
    }
    if out["witness"] is None:
        failures["witness"] = "the estimate returned no witness geodesic"
    else:
        verts = out["witness"]
        failures["witness_length"] = witness_length(out["witness_length"], coeffs, t, verts)
        failures["first_variation"] = first_variation(coeffs, t, verts)
        failures[KNOWN_FAULT] = witness_gap(out["systole"], out["witness_length"])
    return {k: v for k, v in failures.items() if v is not None}


def metric_row(row, out):
    """All checks of one metric-build row; returns {check name: reason} of failures."""
    coeffs, t, u = row["coeffs"], row["t"], row["u"]
    failures = {
        "area_law": area_law(out["area"], coeffs, t),
        "funk": funk_value(out["funk"], coeffs, u),
        "length_identity": length_identity(out["length"], coeffs, t, u),
        "admissibility": admissibility(out["accepted_inside"], out["refused_outside"]),
    }
    return {k: v for k, v in failures.items() if v is not None}
