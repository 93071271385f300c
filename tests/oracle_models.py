"""Models that only the tests use as oracles: a chart with a closed-form
rescaled Reeb field and the Morse-Bott locus of the weighted tube."""

import numpy as np

from contactlab.core import ContactChart, wrap_angles
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
