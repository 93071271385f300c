"""Ready-made model charts used throughout the tests and scenarios.

Coordinate conventions:
  * Darboux chart on R^(2n+1): coordinates (q_1..q_n, p_1..p_n, z) with
    lam0 = dz - sum_i p_i dq_i.
  * Torus model on T^2 x R: coordinates (t1, t2, p) with lam = dt1 + p dt2;
    the Reeb flow is rigid translation in t1 and every point lies on a
    closed orbit of period 1.
  * Weighted tube: a solid-torus chart (theta, x, y) around a closed Reeb
    orbit whose transverse plane rotates linearly, the local model of a
    weighted-sphere orbit.

A model's ``lam`` and ``grad`` are frozen value records of its parameters,
callables of one point (d,).  Each reads the point once with ``tolist`` and
computes in Python floats: the bits of the numpy formula, without the cost of
numpy scalars.  Records of equal parameters compare equal, so two calls of a
model give equal charts.  A constant Jacobian is one read-only array.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import ContactChart, _dots


@dataclass(frozen=True)
class _ConstantJacobian:
    """``grad`` of a form whose Jacobian is the constant matrix ``rows`` (a
    tuple of rows): one read-only array, returned at every point."""

    rows: tuple
    G: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        G = np.array(self.rows, dtype=float)
        G.flags.writeable = False
        object.__setattr__(self, "G", G)

    def __call__(self, x):
        return self.G


@dataclass(frozen=True)
class _DarbouxLam:
    """lam = scale * (dz - sum p_i dq_i) at one point (q, p, z)."""

    n: int
    scale: float

    def __call__(self, x):
        s = -self.scale
        return np.array([s * p for p in x.tolist()[self.n : 2 * self.n]] + [0.0] * self.n + [self.scale])


def darboux_chart(n: int = 1, scale: float = 1.0) -> ContactChart:
    """Standard chart with lam = scale * (dz - sum p_i dq_i)."""
    scale = float(scale)
    G = np.zeros((2 * n + 1, 2 * n + 1))
    G[np.arange(n, 2 * n), np.arange(n)] = -scale  # d/dp_i of the dq_i coefficient
    name = f"darboux(n={n})" if scale == 1.0 else f"{scale:g}*darboux(n={n})"
    return ContactChart(n, _DarbouxLam(n, scale), _ConstantJacobian(tuple(map(tuple, G.tolist()))), name=name)


def darboux_flat_dual_formula(n: int, alpha0, a, b, x) -> np.ndarray:
    """Printed component formula for the dual field of a constant one-form.

    For alpha = alpha0 dz + sum a_i dq_i + sum b_j dp_j on the standard chart:
    z-component alpha0 + sum p_k b_k, q_i-component b_i, p_j-component
    -a_j - p_j alpha0.  Takes one point, x (2n+1,), a and b (n,) and a float
    alpha0, or a stack of them, x (..., 2n+1), a and b (..., n), alpha0 (...).
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    alpha0 = np.asarray(alpha0, dtype=float)
    p = x[..., n : 2 * n]
    v = np.zeros(x.shape)
    v[..., -1] = alpha0 + _dots(p, b)
    v[..., :n] = b
    v[..., n : 2 * n] = -a - p * alpha0[..., None]
    return v


@dataclass(frozen=True)
class _TorusLam:
    """lam = dt1 + p dt2 at one point (t1, t2, p)."""

    def __call__(self, x):
        return np.array([1.0, x.tolist()[2], 0.0])


def torus_chart() -> ContactChart:
    """lam = dt1 + p dt2 on (t1, t2, p); t1 and t2 are unit-period angles."""
    G = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0))  # d/dp of the dt2 coefficient
    return ContactChart(1, _TorusLam(), _ConstantJacobian(G), name="torus", periods=(1.0, 1.0, None))


@dataclass(frozen=True)
class _SolidTorusLam:
    """lam = (1 + c r^2/2 + q r^4/4) dtheta + (x dy - y dx)/2 at one point
    (theta, x, y), with r^2 = x^2 + y^2."""

    c: float
    q: float

    def __call__(self, x):
        _, a, b = x.tolist()
        r2 = a**2 + b**2
        return np.array([1.0 + 0.5 * self.c * r2 + 0.25 * self.q * r2**2, -0.5 * b, 0.5 * a])


@dataclass(frozen=True)
class _SolidTorusGrad:
    """Jacobian of ``_SolidTorusLam(c, q)`` at one point (theta, x, y)."""

    c: float
    q: float

    def __call__(self, x):
        _, a, b = x.tolist()
        s = self.c + self.q * (a**2 + b**2)
        # a flat list converts to an array faster than nested ones
        return np.array([0.0, 0.0, 0.0, s * a, 0.0, 0.5, s * b, -0.5, 0.0]).reshape(3, 3)


def _solid_torus_chart(w_theta: float, w_fiber: float, quartic: float, name: str) -> ContactChart:
    """lam = (1 + w_fiber*r^2/2 + quartic*r^4/4) dtheta + (x dy - y dx)/2."""
    c, q = float(w_fiber), float(quartic)
    return ContactChart(
        1, _SolidTorusLam(c, q), _SolidTorusGrad(c, q), name=name, periods=(2 * np.pi / w_theta, None, None)
    )


def weighted_tube_chart(w_theta: float, w_fiber: float) -> ContactChart:
    """Solid-torus model of a closed Reeb orbit with linear transverse rotation.

    Coordinates (theta, x, y), theta an angle of period 2*pi/w_theta, with
    lam = (1 + w_fiber*(x^2+y^2)/2) dtheta + (x dy - y dx)/2.

    The central circle {x = y = 0} is a closed Reeb orbit of period
    2*pi/w_theta and the transverse plane rotates with angular speed
    w_fiber, so the linearized return map is a rotation by
    2*pi*w_fiber/w_theta.  This is the local model of a weighted-sphere
    orbit with frequency ratio w_fiber/w_theta.
    """
    return _solid_torus_chart(w_theta, w_fiber, 0.0, f"tube(w={w_theta:g},{w_fiber:g})")


def weighted_tube_flow(w_fiber: float, x0, t) -> np.ndarray:
    """Closed-form Reeb flow of weighted_tube_chart: theta advances at unit
    speed, the fiber rotates by -w_fiber * t.  A point (3,) takes a scalar t,
    a stack (N, 3) takes t of shape (N,)."""
    x0 = np.asarray(x0, dtype=float)
    c = float(w_fiber)
    ct, st = np.cos(c * t), np.sin(c * t)
    th, x, y = x0[..., 0], x0[..., 1], x0[..., 2]
    return np.stack([th + t, ct * x + st * y, -st * x + ct * y], axis=-1)


def perturbed_tube_chart(w_theta: float, w_fiber: float, quartic: float) -> ContactChart:
    """Weighted tube with a radius-dependent rotation speed.

    Adds quartic/4 * r^4 to the dtheta coefficient, which makes off-center
    rotation non-resonant and destroys the closed-orbit family away from the
    central circle.
    """
    return _solid_torus_chart(w_theta, w_fiber, quartic, f"tube(w={w_theta:g},{w_fiber:g})+r4")
