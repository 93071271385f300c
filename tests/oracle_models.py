"""Models that only the tests use as oracles: a chart with a closed-form
rescaled Reeb field, the Morse-Bott locus of the weighted tube, and the numpy
formulas of the finite-difference stencil and of the model charts, which the
library now evaluates in one array op and in Python floats."""

import numpy as np

from contactlab.core import DEFAULT_FD_STEP, ContactChart, wrap_angles
from contactlab.decay import FlatTorusQ
from contactlab.models import weighted_tube_flow


def exp_factor_chart(n: int = 1) -> ContactChart:
    """Chart carrying e^z * lam0 with analytic derivatives."""
    dim = 2 * n + 1
    q = np.arange(n)

    def lam(x):
        ez = np.exp(x[-1])
        out = np.zeros(dim)
        out[:n] = -ez * x[n : 2 * n]
        out[-1] = ez
        return out

    def grad(x):
        ez = np.exp(x[-1])
        G = np.zeros((dim, dim))
        G[n + q, q] = -ez
        G[-1, :n] = -ez * x[n : 2 * n]
        G[-1, -1] = ez
        return G

    return ContactChart(n, lam, grad, name=f"exp_z*darboux(n={n})")


class RotatingTubeQ(FlatTorusQ):
    """Morse-Bott locus of the weighted tube: circle direction plus a fiber
    plane that the flow rotates with angular speed w_fiber.  Only the circle
    coordinate is an angle, of period 2 pi / w_theta."""

    def __init__(self, w_theta: float, w_fiber: float):
        super().__init__(3)
        self.angles = (2 * np.pi / w_theta, None, None)
        self.periods = np.array(self.angles, dtype=float)
        self.w_fiber = w_fiber

    def wrap(self, v):
        return wrap_angles(v, self.angles)

    def flow(self, q, s):
        return weighted_tube_flow(self.w_fiber, q, s)


def loop_fd_gradient(f, x) -> np.ndarray:
    """``core.fd_gradient`` as a loop over the rows, one unit vector e at a time."""
    x = np.asarray(x, dtype=float)
    h = DEFAULT_FD_STEP
    rows = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = 1.0
        rows.append(
            (-f(x + 2 * h * e) + 8 * f(x + h * e) - 8 * f(x - h * e) + f(x - 2 * h * e)) / (12 * h)
        )
    return np.array(rows, dtype=float)


def numpy_darboux_forms(n: int, scale: float):
    """(lam, grad) of ``models.darboux_chart(n, scale)`` in numpy arithmetic."""
    dim = 2 * n + 1
    G = np.zeros((dim, dim))
    G[np.arange(n, 2 * n), np.arange(n)] = -scale

    def lam(x):
        out = np.zeros(dim)
        out[:n] = -scale * x[n : 2 * n]
        out[-1] = scale
        return out

    return lam, lambda x: G


def numpy_torus_forms():
    """(lam, grad) of ``models.torus_chart()`` in numpy arithmetic."""
    G = np.zeros((3, 3))
    G[2, 1] = 1.0
    return lambda x: np.array([1.0, x[2], 0.0]), lambda x: G


def numpy_solid_torus_forms(c: float, q: float):
    """(lam, grad) of the weighted (q = 0) and perturbed tubes of fiber speed
    c in numpy arithmetic."""

    def lam(x):
        r2 = x[1] ** 2 + x[2] ** 2
        return np.array([1.0 + 0.5 * c * r2 + 0.25 * q * r2**2, -0.5 * x[2], 0.5 * x[1]])

    def grad(x):
        s = c + q * (x[1] ** 2 + x[2] ** 2)
        return np.array([[0.0, 0.0, 0.0], [s * x[1], 0.0, 0.5], [s * x[2], -0.5, 0.0]])

    return lam, grad
