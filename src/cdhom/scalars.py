"""Scalar kernels and dense vector-valued polynomials.

Everything here is exact-in-structure floating point: rising factorials,
binomial coefficients with the usual out-of-range zeros, principal-branch
complex powers, and C^(m+1)-valued polynomials in one complex variable
stored as dense coefficient arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroBaseError

_POLE_EPS = 1e-14


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError(f"pochhammer needs n >= 0, got {n}")
    out = 1.0
    for i in range(n):
        out *= x + i
    return out


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero whenever k < 0 or n < k."""
    if k < 0 or n < k:
        return 0
    return math.comb(n, k)


def cpow_principal(base: complex, exponent: float) -> complex:
    """base**exponent through the principal branch of the logarithm.

    Consistency of product identities such as (b)^s (b)^t = (b)^(s+t) is
    only guaranteed for Re(base) > 0; callers that leave that half-plane
    get the principal value without further promises.
    """
    b = complex(base)
    if b == 0:
        raise ZeroBaseError("0 cannot be raised to a real power on a log branch")
    return cmath.exp(exponent * cmath.log(b))


@dataclass(frozen=True)
class VectorPolynomial:
    """A C^(m+1)-valued polynomial in one complex variable.

    coeffs[d, l] is the degree-d coefficient of component l.  Trailing
    all-zero degrees are trimmed on construction so equal polynomials have
    equal shapes; the component count m+1 is fixed for the owning parameter
    set and never trimmed.
    """

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"coefficient array must be (degree+1, m+1), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite polynomial coefficient")
        nz = np.nonzero(np.any(arr != 0, axis=1))[0]
        deg = int(nz[-1]) if nz.size else 0
        arr = arr[: deg + 1].copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def m(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @classmethod
    def zero(cls, m: int) -> "VectorPolynomial":
        return cls(np.zeros((1, m + 1), dtype=complex))

    @classmethod
    def monomial(cls, m: int, component: int, degree: int, coefficient: complex = 1.0) -> "VectorPolynomial":
        """coefficient * eps_component * z**degree."""
        arr = np.zeros((degree + 1, m + 1), dtype=complex)
        arr[degree, component] = coefficient
        return cls(arr)

    def __call__(self, z: complex) -> np.ndarray:
        """Componentwise Horner evaluation; returns a length-(m+1) vector."""
        out = np.array(self.coeffs[-1], dtype=complex)
        for d in range(self.coeffs.shape[0] - 2, -1, -1):
            out = out * z + self.coeffs[d]
        return out

    def derivative(self) -> "VectorPolynomial":
        if self.coeffs.shape[0] == 1:
            return VectorPolynomial.zero(self.m)
        degs = np.arange(1, self.coeffs.shape[0])[:, None]
        return VectorPolynomial(self.coeffs[1:] * degs)

    def shift_degree(self, k: int) -> "VectorPolynomial":
        """Multiply by z**k."""
        if k == 0:
            return self
        pad = np.zeros((k, self.m + 1), dtype=complex)
        return VectorPolynomial(np.vstack([pad, self.coeffs]))

    def apply_matrix(self, a: np.ndarray) -> "VectorPolynomial":
        """Constant matrix acting on the component vector at every degree."""
        return VectorPolynomial(self.coeffs @ np.asarray(a, dtype=complex).T)

    def __add__(self, other: "VectorPolynomial") -> "VectorPolynomial":
        if other.m != self.m:
            raise ValueError("component counts differ")
        d = max(self.coeffs.shape[0], other.coeffs.shape[0])
        out = np.zeros((d, self.m + 1), dtype=complex)
        out[: self.coeffs.shape[0]] += self.coeffs
        out[: other.coeffs.shape[0]] += other.coeffs
        return VectorPolynomial(out)

    def __sub__(self, other: "VectorPolynomial") -> "VectorPolynomial":
        return self + (other * (-1.0))

    def __mul__(self, scalar: complex) -> "VectorPolynomial":
        return VectorPolynomial(self.coeffs * scalar)

    __rmul__ = __mul__

    def padded(self, degree: int) -> np.ndarray:
        """Coefficients zero-padded up to the given degree (inclusive)."""
        if degree < self.degree:
            raise ValueError("cannot pad below the actual degree")
        out = np.zeros((degree + 1, self.m + 1), dtype=complex)
        out[: self.coeffs.shape[0]] = self.coeffs
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))


def poly_distance(p: VectorPolynomial, q: VectorPolynomial) -> float:
    """Max absolute coefficient difference between two polynomials."""
    d = max(p.degree, q.degree)
    return float(np.max(np.abs(p.padded(d) - q.padded(d))))
