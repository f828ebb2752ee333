#!/usr/bin/env python3
"""Spherical harmonics as the coordinate system of the laboratory.

Every variation direction in this package is a real spherical-harmonic
expansion f = sum c_lm Y_lm.  This script walks through the primitives
everything else is built on:

  * evaluating f and its tangential gradient anywhere on the sphere,
  * exact quadrature (Gauss-Legendre x uniform longitude) for band-limited
    integrands,
  * Parseval's identity, which the area law A = 4*pi + t^2 |f|^2 relies on,
  * the mean-zero and parity decompositions that the experiment kinds use
    to preprocess their directions.
"""

import math

import numpy as np

from systolab import (
    SphericalFunction,
    build_quadrature,
    integrate,
    laplacian,
    mean_zero_decompose,
    parity_decompose,
)

FOUR_PI = 4.0 * math.pi

print("== a direction and its pieces ==")
f = SphericalFunction.from_pairs([(0, 0, 0.7), (1, 0, 1.0), (2, 0, 1.0), (4, 3, 0.5)])
print(f"f = 0.7*Y00 + Y10 + Y20 + 0.5*Y43   (degree {f.degree})")

lam, f0 = mean_zero_decompose(f)
print(f"mean part lam = {lam:.6f}  (= 0.7 / sqrt(4*pi) = {0.7 / math.sqrt(FOUR_PI):.6f})")
even, odd = parity_decompose(f0)
print(f"even part keeps Y20, Y43: coefficients {even.coefficient(2, 0)}, {even.coefficient(4, 3)}")
print(f"odd part keeps Y10:       coefficient  {odd.coefficient(1, 0)}")

print()
print("== exact integration ==")
q = build_quadrature(2 * f.degree)
print(f"quadrature: band {q.band}, {q.size} nodes")
print(f"integral of f dv      = {integrate(f0, q):+.3e}   (mean-zero part: exactly 0)")
print(f"integral of Y00 dv    = {integrate(SphericalFunction.constant(1.0), q):.12f} (sphere area 4*pi = {FOUR_PI:.12f})")

# Parseval: the L2 norm is the Euclidean norm of the coefficient vector.
norm_quad = math.sqrt(q.integrate_values(q.synthesize(f.coeffs) ** 2))
norm_coeffs = f.l2_norm()
print(f"|f|_2 by quadrature   = {norm_quad:.15f}")
print(f"|f|_2 by coefficients = {norm_coeffs:.15f}   (Parseval, err {abs(norm_quad - norm_coeffs):.1e})")

print()
print("== pointwise evaluation and gradient ==")
rng = np.random.default_rng(1)
p = rng.standard_normal(3)
p /= np.linalg.norm(p)
value = f(p)
grad = f.gradient(p)
print(f"p = {np.array2string(p, precision=4)}")
print(f"f(p) = {value:.6f},  grad f(p) = {np.array2string(grad, precision=4)}")
print(f"gradient is tangential: <grad, p> = {np.dot(grad, p):+.1e}")

# The tangential gradient of a degree-l harmonic satisfies the eigenvalue
# identity through the Laplacian: Delta Y_lm = -l(l+1) Y_lm.
y43 = SphericalFunction.harmonic(4, 3)
print(f"laplacian(Y43) / Y43 at p = {laplacian(y43)(p) / y43(p):.6f}   (expect -l(l+1) = -20)")

print()
print("== spectral projection round-trip ==")
samples = q.synthesize(f.coeffs)
back = q.project(samples, f.degree)
print(f"project(evaluate(f)) recovers the coefficients to {np.max(np.abs(back.coeffs - f.coeffs)):.1e}")
