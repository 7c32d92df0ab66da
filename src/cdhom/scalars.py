"""Scalar kernels and the evaluable vector-valued polynomial.

Everything here is exact-in-structure floating point: rising factorials,
principal-branch complex powers, and C^(m+1)-valued polynomials in one
complex variable wrapped for evaluation.  The sl(2) operators of basis.py
act on plain coefficient arrays c[..., d, l]; VectorPolynomial only
validates one such array and evaluates it by Horner's rule, for the
basis vectors e_basis returns and the functions act_U moves.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroBaseError


def pochhammer(x: float, n: int) -> float:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError(f"pochhammer needs n >= 0, got {n}")
    out = 1.0
    for i in range(n):
        out *= x + i
    return out


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
