"""The Moebius group of the disc and its Lie algebra.

Group elements are stored as 2x2 complex matrices of determinant one
acting on the disc by fractional-linear maps; the elements of SU(1,1),
[[a, b], [conj(b), conj(a)]], realize the biholomorphism group used
throughout, and exp_basis of a real span of X0, X1, Y lands there.  The
derivative g'(z) = (cz + d)^(-2) enters only through the multiplier
(representation.py).  The Lie algebra carries two bases: the real one
X0, X1, Y spanning su(1,1), and the complex triangular basis h, x, y with

    h = diag(1/2, -1/2),   x = [[0, 1], [0, 0]],   y = [[0, 0], [1, 0]],

related by h = -i*X0, x = X1 + i*Y, y = X1 - i*Y.  The action reads its
points through np.asarray(z, dtype=complex), so a scalar point is a 0-d
array on the one numpy path, and it returns a value of the shape of z.
Matrix exponentials of real spans are evaluated in closed form (every
traceless 2x2 matrix M satisfies M^2 = -det(M) I, so exp(tM) is a
two-term expression).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import PoleError

_DET_TOL = 1e-12
_POLE_EPS = 1e-14


@dataclass(frozen=True)
class GroupElement:
    """Matrix [[a, b], [c, d]] with ad - bc = 1, acting by z -> (az+b)/(cz+d)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"determinant {det} deviates from 1 beyond {_DET_TOL}")

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def rotation(cls, theta: float) -> "GroupElement":
        """diag(e^{i theta/2}, e^{-i theta/2}); acts as z -> e^{i theta} z."""
        ph = cmath.exp(0.5j * theta)
        return cls(ph, 0.0, 0.0, 1.0 / ph)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def check_pole(den, z) -> None:
    """Raise PoleError if a value c*z + d (nearly) vanishes; den and z broadcast together.

    One pole among the points is enough for the error, which names the first.
    """
    near = np.abs(den) < _POLE_EPS
    if near.any():
        at, value = np.broadcast_to(z, near.shape)[near][0], np.asarray(den)[near][0]
        raise PoleError(f"c*z + d = {value} at z = {at}")


def act(g: GroupElement, z):
    """Fractional-linear action (az + b)/(cz + d), pointwise over an array z.

    Raises PoleError where cz + d (nearly) vanishes.
    """
    z = np.asarray(z, dtype=complex)
    den = g.c * z + g.d
    check_pole(den, z)
    return (g.a * z + g.b) / den


@dataclass(frozen=True)
class LieAlgebraElement:
    """Coefficients over the complex basis: c_h * h + c_x * x + c_y * y."""

    c_h: complex = 0.0
    c_x: complex = 0.0
    c_y: complex = 0.0

    def matrix(self) -> np.ndarray:
        return np.array(
            [[0.5 * self.c_h, self.c_x], [self.c_y, -0.5 * self.c_h]], dtype=complex
        )


# Complex triangular basis.
H = LieAlgebraElement(c_h=1.0)
X = LieAlgebraElement(c_x=1.0)
Y_LOWER = LieAlgebraElement(c_y=1.0)

# Real basis of su(1,1): X0 spans the rotation subalgebra, X1 and Y the rest.
X0 = LieAlgebraElement(c_h=1j)
X1 = LieAlgebraElement(c_x=0.5, c_y=0.5)
Y = LieAlgebraElement(c_x=-0.5j, c_y=0.5j)


def exp_basis(elem: LieAlgebraElement, t: float) -> GroupElement:
    """Closed-form exp(t * elem) for any span of h, x, y.

    For traceless M, M^2 = -det(M) I, hence with delta = sqrt(-det M):
    exp(tM) = cosh(t*delta) I + sinh(t*delta)/delta * M (nilpotent limit
    I + tM when delta = 0).
    """
    mat = elem.matrix()
    negdet = mat[0, 0] * mat[0, 0] + mat[0, 1] * mat[1, 0]  # -det for traceless M
    delta = cmath.sqrt(negdet)
    if abs(delta) < 1e-30:
        out = np.eye(2, dtype=complex) + t * mat
    else:
        out = cmath.cosh(t * delta) * np.eye(2, dtype=complex) + (
            cmath.sinh(t * delta) / delta
        ) * mat
    return GroupElement(complex(out[0, 0]), complex(out[0, 1]), complex(out[1, 0]), complex(out[1, 1]))

