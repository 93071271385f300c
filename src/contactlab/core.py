"""Chart-level contact algebra.

A chart is an open piece of R^(2n+1) carrying a contact one-form given as a
callable ``lam(x)`` returning the 2n+1 coefficients at the point, with an
optional callable ``grad(x)`` returning the Jacobian ``G[i, j] = d lam_j /
d x_i``; without it the derivative goes through the one 4th-order
finite-difference stencil, ``fd_gradient``, applied to the whole vector.
Everything here is a pure function of the point: Reeb fields, the projection
to the contact distribution, the dual isomorphism between one-forms and
vector fields, the closed-form identities for a conformally rescaled contact
form.  Reeb fields, duals and xi-projections take one point (d,) or a stack
(N, d), and make one solve of the chart's dual system per call (``_solve``).

A chart is read one point at a time (``lambda_at``, ``dlambda_at``), the hot
leaf of every solve, so per-point work avoids numpy scalars, which cost more
than their arithmetic: a chart's ``dim`` is computed once, and a point Reeb
solve forms its residual in Python floats, to the bits of the numpy
expression.  ``_solve`` calls numpy's own LAPACK gufuncs (``_umath_linalg``)
directly: ``svd``, ``dgesdd`` for the singular values, and ``solve1``,
``dgesv`` for one column each, what ``np.linalg.svd(M, compute_uv=False)``
and ``np.linalg.solve`` call without their per-call wrappers, which cost
more than the arithmetic of a 3x3 system.  The gufuncs broadcast, so a point
(d, d) and a stack (N, d, d) take the same calls and checks, and
``reeb_batch`` the same ``solve1``.  The package needs numpy alone (the ODE
integrator is the lab's own, ``_dop853``).

The circle lives here too, once: a chart's ``periods`` is None or one entry
per coordinate, a period P for an angle and None for a plain coordinate.
``wrap_angles`` reduces angle differences to [-P/2, P/2), ``unwrap_angles``
lifts samples along a loop or grid axis to the universal cover, and
``periodic_derivative`` differentiates periodic samples spectrally.
"""

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ModeMismatch, OutOfRange, SingularChart

# Step for 4th-order centered differences; balances truncation against
# cancellation for the 1e-8 formula-vs-oracle targets.
DEFAULT_FD_STEP = 1e-4
# A chart value (lam or the Jacobian G of lam) must be below this in modulus:
# then G - G^T and the dual matrix dlam^T + lam lam^T cannot overflow, as
# |G - G^T| <= 2^512 and 2^512 + 2^1022 < 2^1024.
_FORM_BOUND = 2.0**511


def _require_int(name: str, value, lo=-math.inf) -> None:
    """OutOfRange unless ``value`` is an integer (not a bool) >= lo."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        bound = "" if lo == -math.inf else f" >= {lo}"
        raise OutOfRange(f"{name} must be an integer{bound}, got {value!r}")


def _require_real(name: str, value, lo=-math.inf) -> float:
    """``value`` as a float; OutOfRange unless it is a finite real number (not
    a bool) above lo."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not lo < value < math.inf:
        bound = "" if lo == -math.inf else f" and > {lo:g}"
        raise OutOfRange(f"{name} must be finite{bound}, got {value!r}")
    return float(value)


def _array(what: str, value, shape=None) -> np.ndarray:
    """value as a float array; OutOfRange when it is not numbers (a string,
    None in a list), and with a ``shape`` ModeMismatch for another shape and
    OutOfRange for a non-finite entry."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise OutOfRange(f"{what} must be numbers, got {value!r:.80}") from None
    if shape is not None and a.shape != shape:
        raise ModeMismatch(f"{what} needs shape {shape}, got {a.shape}")
    if shape is not None and not _finite(a):
        raise OutOfRange(f"{what} must be finite")
    return a


def _record(name: str, value, cls):
    """value, ModeMismatch unless it is a ``cls``: a record the library
    builds and an entry point reads by attribute."""
    if not isinstance(value, cls):
        raise ModeMismatch(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _finite(a) -> bool:
    """True when every entry of the float array a is finite.  On a few
    entries (a point) a Python loop costs a fifth of the ufunc call."""
    return all(map(math.isfinite, a.ravel().tolist())) if a.size <= 32 else bool(np.isfinite(a).all())


def _bounded(a) -> bool:
    """True when every entry of the float array a is below _FORM_BOUND in
    modulus, so finite.  On a few entries (a point) a Euclidean norm below
    the bound settles it in less time than ``_finite`` (``math.hypot`` does
    not overflow, and a NaN fails the comparison); else the entries are
    compared."""
    if a.size <= 64 and math.hypot(*a.ravel().tolist()) < _FORM_BOUND:
        return True
    return bool(np.abs(a).max() < _FORM_BOUND)


class _FormOutOfRange(OutOfRange):
    """OutOfRange for a chart value that is not ``_bounded`` at a point; it
    keeps ``what`` failed apart from where (``_at``), so a read over a stack
    can raise it again naming the row."""

    @classmethod
    def at(cls, what: str, where: str) -> "_FormOutOfRange":
        err = cls(f"{what} {where}")
        err.what = what
        return err


def _form_error(name: str, a, where: str) -> _FormOutOfRange:
    """``_FormOutOfRange`` for the value a of the chart ``name`` at ``where``."""
    kind = "non-finite contact form" if not _finite(a) else "contact form with an entry of modulus 2^511 or more"
    return _FormOutOfRange.at(f"{name}: {kind}", where)


def _points(d: int, x, point: bool = True, stack: bool = True, name: str = "x", **vectors) -> list:
    """[x, *vectors] as float arrays: x a point (d,) or a stack (N, d), as
    ``point`` and ``stack`` allow, and each named vector of the shape of x,
    else ModeMismatch; OutOfRange for N = 0 or a non-finite entry."""
    x = _array(name, x)
    if not ((point and x.shape == (d,)) or (stack and x.ndim == 2 and x.shape[1] == d)):
        forms = [f"({d},)"] * point + [f"(N, {d})"] * stack
        raise ModeMismatch(f"{name} needs shape {' or '.join(forms)}, got {x.shape}")
    if not len(x):
        raise OutOfRange(f"{name} is an empty stack")
    if not _finite(x):
        raise OutOfRange(f"{name} must be finite")
    out = [x]
    for k, v in vectors.items():
        out.append(_array(k, v))
        if out[-1].shape != x.shape:
            raise ModeMismatch(f"{k} needs the shape of {name}, {x.shape}, got {out[-1].shape}")
        if not _finite(out[-1]):
            raise OutOfRange(f"{k} must be finite")
    return out


def _fd_points(x) -> np.ndarray:
    """The points x + s e_i, s = 2h, h, -h, -2h, h = DEFAULT_FD_STEP, of
    ``fd_gradient``'s stencil at a point x (d,), shape (d, 4, d), or at each
    row of a stack, (N, d, 4, d); a zero offset has the sign of s."""
    steps = DEFAULT_FD_STEP * np.array([2.0, 1.0, -1.0, -2.0])
    return x[..., None, None, :] + np.eye(x.shape[-1])[:, None, :] * steps[:, None]


def _fd_sum(F, axis: int) -> np.ndarray:
    """The 4th-order centered difference from the values F at the points of
    ``_fd_points``, s along ``axis``.  Values that are not ``_bounded``
    combine with the warnings off: their inf - inf gives a non-finite entry,
    which a chart read rejects, without a numpy warning first."""
    up2, up1, down1, down2 = np.moveaxis(F, axis, 0)
    with contextlib.nullcontext() if _bounded(F) else np.errstate(all="ignore"):
        return (-up2 + 8 * up1 - 8 * down1 + down2) / (12 * DEFAULT_FD_STEP)


def fd_gradient(f: Callable, x: np.ndarray) -> np.ndarray:
    """4th-order centered finite differences of f at x, step DEFAULT_FD_STEP;
    row i is d f / d x_i.

    A scalar f gives its gradient, shape (d,); a vector-valued f with m
    components gives the (d, m) matrix G[i, j] = d f_j / d x_i.

    f is called at each point of ``_fd_points`` in turn, i = 0 first, as in
    a loop over the rows, and ``_fd_sum`` combines the values.
    """
    x = np.asarray(x, dtype=float)
    F = np.array([f(p) for p in _fd_points(x).reshape(4 * x.size, x.size)], dtype=float)
    return _fd_sum(F.reshape((x.size, 4) + F.shape[1:]), 1)


def _angle_columns(periods):
    """Indices and periods (a float array) of the angle coordinates."""
    cols = [i for i, P in enumerate(() if periods is None else periods) if P is not None]
    return cols, np.array([periods[i] for i in cols], dtype=float)


def wrap_angles(d, periods) -> np.ndarray:
    """A copy of d with each angle coordinate (last axis) reduced to [-P/2, P/2).

    ``periods`` follows the chart convention: None for no angles at all, or
    one entry per coordinate, a period P or None for a plain coordinate.
    """
    d = np.array(d, dtype=float)
    cols, P = _angle_columns(periods)
    if cols:
        w = (d[..., cols] + P / 2.0) % P - P / 2.0
        # the float % rounds up to P itself for inputs a few ulps below -P/2
        d[..., cols] = np.where(w == P / 2.0, -P / 2.0, w)
    return d


def unwrap_angles(z, periods, axis: int = 0) -> np.ndarray:
    """Samples z (..., dim) lifted along ``axis`` to the universal cover.

    Each angle coordinate becomes its first sample plus the running sum of
    its wrapped steps, so it no longer jumps by a period between neighbours;
    plain coordinates are returned untouched.  ``periods`` as in
    ``wrap_angles``.
    """
    z = np.array(z, dtype=float)
    cols, P = _angle_columns(periods)
    if cols:
        a = z[..., cols]
        steps = wrap_angles(np.diff(a, axis=axis), P)
        first = np.take(a, [0], axis=axis)
        z[..., cols] = np.concatenate([first, first + np.cumsum(steps, axis=axis)], axis=axis)
    return z


def periodic_derivative(samples, period: float) -> np.ndarray:
    """Spectral derivative of equally spaced samples of a period-``period``
    function, taken along axis 0 (exact on trigonometric polynomials of
    degree below n/2 for n samples)."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    freqs = (2j * np.pi * np.fft.fftfreq(n, d=period / n)).reshape((n,) + (1,) * (samples.ndim - 1))
    return np.real(np.fft.ifft(freqs * np.fft.fft(samples, axis=0), axis=0))


@dataclass(frozen=True)
class ContactChart:
    """Coordinate chart of dimension 2n+1 carrying a contact form.

    ``lam(x)`` returns the 2n+1 coefficients of the form at x; ``grad(x)``,
    when given, returns its Jacobian G with G[i, j] = d lam_j / d x_i, and
    otherwise dlam goes through ``fd_gradient`` on ``lam``.  ``periods[i]``
    declares coordinate i as an angle with that period (None for a plain real
    coordinate).
    """

    n: int
    lam: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "chart"
    periods: Optional[tuple] = None

    @functools.cached_property  # read on every chart evaluation
    def dim(self) -> int:
        return 2 * self.n + 1

    def __post_init__(self):
        _require_int("n", self.n, 0)
        if self.periods is not None and len(self.periods) != self.dim:
            raise ModeMismatch(f"{self.name}: one period entry per coordinate, got {len(self.periods)}")
        for i, P in enumerate(self.periods or ()):
            if P is not None:
                _require_real(f"periods[{i}]", P, 0)

    # the hot path of every solve: ``_array``'s number check inline
    def lambda_at(self, x) -> np.ndarray:
        L = self.lam(np.asarray(x, dtype=float))
        try:
            L = np.asarray(L, dtype=float)
        except (TypeError, ValueError):
            raise OutOfRange(f"{self.name}: lambda must be numbers, got {L!r:.80}") from None
        if L.shape != (self.dim,):
            raise ModeMismatch(f"{self.name}: lambda needs {self.dim} components, got shape {L.shape}")
        return L

    def dlambda_at(self, x) -> np.ndarray:
        """Antisymmetric matrix D with dlam(u, v) = u . D v, from the Jacobian G
        of lam, which is ``_bounded`` or else OutOfRange before D = G - G^T is
        formed (an inf on its diagonal would warn of inf - inf)."""
        x = np.asarray(x, dtype=float)
        G = self.grad(x) if self.grad is not None else fd_gradient(self.lam, x)
        try:
            G = np.asarray(G, dtype=float)
        except (TypeError, ValueError):
            raise OutOfRange(f"{self.name}: the Jacobian of lambda must be numbers, got {G!r:.80}") from None
        if G.shape != (self.dim, self.dim):
            raise ModeMismatch(
                f"{self.name}: the Jacobian of lambda needs shape ({self.dim}, {self.dim}), got {G.shape}"
            )
        if not _bounded(G):
            raise _form_error(self.name, G, _at(x))
        return G - G.T

    def wrap_diff(self, a, b) -> np.ndarray:
        """Componentwise a - b, reduced to the nearest representative on angles."""
        return wrap_angles(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), self.periods)


@dataclass(frozen=True)
class PerturbationData:
    """A positive factor f rescaling the contact form, with g = log f, and
    its gradient ``grad_f(x)``, the d components of df at x."""

    f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]

    def f_at(self, x) -> float:
        """f(x), one finite number > 0, so g = log f exists (else ModeMismatch
        or OutOfRange)."""
        fx = self.f(np.asarray(x, dtype=float))
        fx = fx if isinstance(fx, float) else float(_array("f", fx, ()))  # a Python float needs no array
        if not 0 < fx < math.inf:
            raise OutOfRange(f"conformal factor must be positive and finite, got {fx}")
        return fx


@dataclass(frozen=True)
class ReebSolve:
    """Reeb field of one point or of a stack of points.

    A point (d,) gives ``vector`` and ``lam`` of shape (d,), a stack (N, d)
    gives shape (N, d); ``residual`` and ``cond`` are floats, the worst over
    the stack.  ``lam`` holds the contact form the solve evaluated, so a
    caller that needs lam at the same points evaluates the chart no more.
    """

    vector: np.ndarray
    residual: float
    cond: float
    lam: np.ndarray


_RANK_TOL = 1e-12


def _at(x, i=None) -> str:
    """Where a check failed: "at x" for a point x, "at point i of the stack,
    x[i]" for row i of a stack x."""
    return f"at {x}" if i is None else f"at point {i} of the stack, {x[i]}"


def _read_forms(chart: ContactChart, x):
    """``_chart_forms`` without its retry and its check of lam."""
    if x.ndim == 1:
        return chart.lambda_at(x), chart.dlambda_at(x)
    d, lambda_at, dlambda_at = chart.dim, chart.lambda_at, chart.dlambda_at
    L = np.empty((len(x), d))
    D = np.empty((len(x), d, d))
    for i, xi in enumerate(x):
        L[i] = lambda_at(xi)
        try:
            D[i] = dlambda_at(xi)
        except _FormOutOfRange as err:
            raise _FormOutOfRange.at(err.what, _at(x, i)) from None
    return L, D


def _checked(what: Optional[str], op, *args):
    """op(*args), a float array, run again with the warnings off where a
    warnings filter raises the RuntimeWarning of an overflow or of a failed
    LAPACK gufunc, as ``_chart_forms`` reads a chart again: only such a call
    pays for np.errstate.  With a ``what``, OutOfRange "<what> must be
    finite" unless every entry is."""
    try:
        a = op(*args)
    except RuntimeWarning:
        with np.errstate(all="ignore"):
            a = op(*args)
    if what and not _finite(a):
        raise OutOfRange(f"{what} must be finite")
    return a


def _chart_forms(chart: ContactChart, x):
    """(L, D) at a point x (d,), of shapes (d,) and (d, d), or over a stack x
    (N, d), of shapes (N, d) and (N, d, d): the one per-point chart loop of
    this module.  OutOfRange at the first point whose Jacobian of lam is not
    ``_bounded`` (the check of ``dlambda_at``), else at the first whose lam
    is not, so the dual matrix dlam^T + lam lam^T cannot overflow.  Where a
    warnings filter raises a RuntimeWarning while the chart is read (a lam
    or grad that warns itself, as a numpy division by zero does), the chart
    is read again with the warnings off, where np.errstate on every read
    would cost about 2.5 us."""
    try:
        L, D = _read_forms(chart, x)
    except RuntimeWarning:
        with np.errstate(all="ignore"):
            L, D = _read_forms(chart, x)
    if not _bounded(L):
        i = None if x.ndim == 1 else np.flatnonzero(~(np.abs(L) < _FORM_BOUND).all(1))[0]
        raise _form_error(chart.name, L if i is None else L[i], _at(x, i))
    return L, D


def _dual_systems(chart: ContactChart, x):
    """(L, D, M) at a point x (d,) or over a stack x (N, d): ``_chart_forms``
    and the dual matrix M = dlam^T + lam lam^T, of the shape of D.

    M X = X . dlam + lam(X) lam is the one-form dual to X, and the Reeb field
    is the solution of M X = lam.  M is the transposed view of the sum of
    contiguous arrays lam lam^T + dlam: dlam^T + lam lam^T bit for bit, signed
    zeros included, where lam lam^T - dlam turns some +0 into -0.
    """
    L, D = _chart_forms(chart, x)
    return L, D, (L[..., :, None] * L[..., None, :] + D).mT


def _system_error(chart: ContactChart, system: str, s, x, i=None):
    """SingularChart naming the ``system`` and the singular values s of its
    dual matrix at the point x, or at row i of the stack x (see ``_at``)."""
    return SingularChart(f"{chart.name}: {system} {_at(x, i)} (sigma_min = {s[-1]:.2e}, sigma_max = {s[0]:.2e})")


def _dots(a, b):
    """Dot products of a and b along the last axis, shape a.shape[:-1].

    A matmul of each pair of rows rather than an einsum, so every entry is bit
    for bit the ``a_i @ b_i`` of a point-by-point loop."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _dot_column(a, b):
    """``_dots`` shaped to scale rows: a number for vectors (d,), whose 1-D
    product skips the stacked matmul, and a column (N, 1) for stacks (N, d)."""
    return a @ b if a.ndim == 1 else _dots(a, b)[:, None]


def _gufunc(routine: str, gufunc, *args) -> np.ndarray:
    """gufunc(*args) for one of numpy's LAPACK gufuncs, through ``_checked``.
    A gufunc reports a failed call of the LAPACK ``routine`` as NaNs in that
    matrix's output and the floating-point invalid flag, whose RuntimeWarning
    ``_checked`` turns into a second call with the warnings off; a NaN output
    is then ``np.linalg.LinAlgError`` naming the routine, with ``row`` the
    first failed matrix of a stack (None for one matrix)."""
    a = _checked(None, gufunc, *args)
    if not (math.isnan(a[0]) if a.ndim == 1 else np.isnan(a[:, 0]).any()):
        return a
    err = np.linalg.LinAlgError(f"LAPACK {routine} failed")
    err.row = None if a.ndim == 1 else int(np.argmax(np.isnan(a[:, 0])))
    raise err


def _singular_values(M) -> np.ndarray:
    """Singular values of a matrix M, or of each of a stack, descending: the
    gufunc of ``np.linalg.svd(M, compute_uv=False)``, LAPACK's ``dgesdd``,
    without its wrapper; ``np.linalg.LinAlgError`` when it does not converge."""
    return _gufunc("dgesdd", _umath_linalg.svd, M)


def _solve(chart: ContactChart, x, M, system: str, *rhs):
    """(s, [v, ...]) for the finite dual matrix M (d, d) at a point x (d,), or
    the stack M (N, d, d) over a stack x (N, d): the singular values s, then
    the solution v of M v = b for each b of rhs, shaped as x, one call each
    of the gufunc of ``np.linalg.solve(M, b)``, LAPACK's ``dgesv`` for one
    column.  The gufuncs take a point and a stack alike.  ``_system_error``
    at the first point where sigma_min <= _RANK_TOL sigma_max (not a ratio
    test: an all-zero M gives 0/0 = NaN, which would pass), and SingularChart
    naming the first point where LAPACK fails."""
    try:
        s = _singular_values(M)
        if x.ndim == 1:  # on numpy scalars, a tenth of the time of the stack's test
            if not s[-1] > _RANK_TOL * s[0]:
                raise _system_error(chart, system, s, x)
        elif not (full := s[:, -1] > _RANK_TOL * s[:, 0]).all():
            i = int(np.argmin(full))
            raise _system_error(chart, system, s[i], x, i)
        return s, [_gufunc("dgesv", _umath_linalg.solve1, M, b) for b in rhs]
    except np.linalg.LinAlgError as err:
        raise SingularChart(f"{chart.name}: {system} {_at(x, err.row)} ({err})") from None


def _point_residual(L, D, v) -> float:
    """sqrt((lam(v) - 1)^2 + |D^T v|^2) at a point, as the numpy expression
    ``np.sqrt((L @ v - 1.0) ** 2 + np.sum((D.T @ v) ** 2))`` gives it, in
    Python floats: a float's ``** 2`` is the same ``pow`` as a numpy scalar's,
    ``u * u`` is ``np.square``, and np.sum adds fewer than 8 entries left to
    right (from 8 on it sums pairwise, so it stays)."""
    Dv = D.T @ v
    if len(Dv) < 8:
        total = 0.0
        for u in Dv.tolist():
            total += u * u
    else:
        total = float(np.sum(Dv**2))
    return math.sqrt((float(L @ v) - 1.0) ** 2 + total)


def reeb_solve(chart: ContactChart, x) -> ReebSolve:
    """Solve the stacked (2n+2)x(2n+1) system lam(X)=1, X . dlam = 0.

    The solve goes through the equivalent square dual system
    (dlam^T + lam lam^T) X = lam; the residual of the stacked system and the
    condition number are reported rather than silently accepted.  A point x
    (d,) is solved on its own, a stack (N, d) in one pass (one stacked SVD
    rank test and LU solve; the worst residual and condition number).
    ``_solve`` gives the singular values, for the rank check and the
    condition number, and the LU solve; on the lab's charts the vectors of a
    stack and of its point solves agree bit for bit.
    """
    x = _array("x", x)
    if x.shape != (chart.dim,) or not _finite(x):
        x = _points(chart.dim, x)[0]  # a stack, else it raises
        L, D, M = _dual_systems(chart, x)
        s, (v,) = _solve(chart, x, M, "Reeb system rank-deficient", L)
        Dv = (D.swapaxes(1, 2) @ v[:, :, None])[:, :, 0]  # one gemv per point, as ``D.T @ v``
        residual = np.sqrt((_dots(L, v) - 1.0) ** 2 + np.sum(Dv**2, axis=1))
        return ReebSolve(v, float(np.max(residual)), float(np.max(s[:, 0] / s[:, -1])), L)
    L, D, M = _dual_systems(chart, x)
    s, (v,) = _solve(chart, x, M, "Reeb system rank-deficient", L)
    return ReebSolve(v, _point_residual(L, D, v), float(s[0] / s[-1]), L)


def reeb_batch(chart: ContactChart, xs) -> np.ndarray:
    """Reeb field at a stack of points (N, d) via one call of ``_solve``'s LU
    gufunc (hot path for variational integration); ``_solve`` runs only when
    LU fails or gives a non-finite field, to name the first bad point."""
    xs = _array("xs", xs)
    if xs.ndim != 2 or xs.shape[1] != chart.dim or not len(xs) or not _finite(xs):
        _points(chart.dim, xs, point=False, name="xs")  # raises the typed error
    L, _, M = _dual_systems(chart, xs)
    v = _checked(None, _umath_linalg.solve1, M, L)
    if _finite(v):
        return v
    _solve(chart, xs, M, "Reeb system rank-deficient", L)
    raise OutOfRange(f"{chart.name}: non-finite Reeb field from a finite, full-rank dual matrix")


def _xi_projection(chart: ContactChart, x, pert=None):
    """(Pi, D, X) at a point x (d,) or over a stack x (N, d): Pi = I - X lam^T,
    the matrix of ``xi_projection_matrix``, D = dlam and X the Reeb field,
    from one chart read per point and one ``_solve``; with a PerturbationData
    ``pert``, those of ``_rescaled_parts``, then its f, df and Y_dg."""
    x = _points(chart.dim, x)[0]
    if pert is None:
        L, D, M = _dual_systems(chart, x)
        X, rescaled = _solve(chart, x, M, "Reeb system rank-deficient", L)[1][0], ()
    else:
        L, D, X, *rescaled = _rescaled_parts(chart, pert, x)
    return (np.eye(chart.dim) - X[..., :, None] * L[..., None, :], D, X, *rescaled)


def xi_projection_matrix(chart: ContactChart, x) -> np.ndarray:
    """Matrix I - X lam^T at a point (d,) of the projection onto the contact
    distribution along the Reeb field X."""
    return _xi_projection(chart, _points(chart.dim, x, stack=False)[0])[0]


def flat_dual(chart: ContactChart, alpha, x) -> np.ndarray:
    """The vector field dual to a one-form under the contact form.

    Returns the unique X with alpha = X . dlam + lam(X) lam, equivalently
    Y_alpha + alpha(X_lam) X_lam with Y_alpha in the contact distribution;
    alpha has the shape of x.
    """
    x, alpha = _points(chart.dim, x, alpha=alpha)
    return _solve(chart, x, _dual_systems(chart, x)[2], "dual system singular", alpha)[1][0]


def sharp_dual(chart: ContactChart, X, x) -> np.ndarray:
    """The one-form dual to a vector field X (shaped as x): X . dlam + lam(X) lam."""
    x, X = _points(chart.dim, x, X=X)
    L, D, _ = _dual_systems(chart, x)
    # one gemv per point, as ``D.T @ X``
    return (D.swapaxes(-1, -2) @ X[..., None])[..., 0] + _dot_column(L, X) * L


def _rescaled_parts(chart: ContactChart, pert: PerturbationData, x):
    """(lam, dlam, X_lam, f, df, Y_dg) at a checked point x (d,), or a stack
    (N, d) with f a column (N, 1): the pieces of every identity of the rescaled
    form f*lam, Y_dg the xi-part of the dual field of dg = df / f, g = log f.

    f and df (``grad_f``) are read once per point; ``f_at`` raises OutOfRange
    unless 0 < f < inf, before g = log f is taken.  One read of the chart's
    dual systems M and one ``_solve`` of M against dg and against lam, one
    column each: two right-hand sides of one system would take LAPACK's
    multi-column triangular solve, which moves last bits against the
    one-column solves of ``flat_dual``.  A tiny f overflows dg, which is
    ``_checked``, or Y_dg, whose non-finite entries the callers' checks meet."""
    _record("pert", pert, PerturbationData)
    fx = pert.f_at(x) if x.ndim == 1 else np.array([[pert.f_at(p)] for p in x])
    df = _array("grad_f", pert.grad_f(x) if x.ndim == 1 else [pert.grad_f(p) for p in x], x.shape)
    L, D, M = _dual_systems(chart, x)
    _, (v, X) = _solve(chart, x, M, "dual system singular", _checked("dg", lambda: df / fx), L)
    return L, D, X, fx, df, _checked(None, lambda: v - _dot_column(L, v) * X)


def perturbed_reeb(chart: ContactChart, pert: PerturbationData, x) -> np.ndarray:
    """Closed-form Reeb field of the rescaled form f*lam: (X + Y_dg)/f,
    OutOfRange where it overflows."""
    _, _, X, fx, _, Y = _rescaled_parts(chart, pert, _points(chart.dim, x)[0])
    return _checked("rescaled Reeb field", lambda: (X + Y) / fx)


def perturbed_chart(chart: ContactChart, pert: PerturbationData) -> ContactChart:
    """The chart ``f"{chart.name}*f"`` carrying f*lam directly (oracle route
    for the closed forms).

    The rescaled form gets no analytic derivatives; its dlam goes through the
    finite-difference path on purpose so the closed-form identities are
    checked against an independent evaluation.
    """
    _record("pert", pert, PerturbationData)
    return ContactChart(
        n=chart.n,
        lam=lambda y: pert.f_at(y) * chart.lam(y),
        name=f"{chart.name}*f",
        periods=chart.periods,
    )


def perturbed_projection(chart: ContactChart, pert: PerturbationData, Z, x) -> np.ndarray:
    """xi-projection of the rescaled form: pi_lam(Z) - lam(Z) Y_dg, Z of the
    shape of x; OutOfRange where it overflows."""
    x, Z = _points(chart.dim, x, Z=Z)
    L, _, X, _, _, Y = _rescaled_parts(chart, pert, x)
    return _checked("rescaled xi-projection", lambda: Z - (lz := _dot_column(L, Z)) * X - lz * Y)


def xi_frame(chart: ContactChart, x) -> np.ndarray:
    """dlam-symplectic 2n-frame of the contact distribution at a point x:
    ``_xi_frames`` of the axes j != k, k that of the largest |X_k|."""
    Pi, D, X = _xi_projection(chart, _points(chart.dim, x, stack=False)[0])
    return _xi_frames(chart, Pi[None], D[None], int(np.argmax(np.abs(X))))[0]


def _loop_axis(chart: ContactChart, z) -> int:
    """The axis k of the ``_xi_frames`` of a closed loop of samples z (N, d),
    read from no chart: the coordinate whose wrapped step to the next sample
    (the last steps to the first) has the largest minimum modulus;
    OutOfRange for n = 0, where xi is 0-dimensional."""
    if not chart.n:
        raise OutOfRange(f"{chart.name}: n = 0, so xi is 0-dimensional and an orbit has no linearization on it")
    steps = wrap_angles(np.diff(z, axis=0, append=z[:1]), chart.periods)
    return int(np.argmax(np.min(np.abs(steps), axis=0)))


def standard_J(rank: int) -> np.ndarray:
    """Block complex structure J0 = [[0, -I], [I, 0]] on R^rank; OutOfRange
    unless rank is an even integer >= 0."""
    _require_int("rank", rank, 0)
    if rank % 2:
        raise OutOfRange(f"rank must be even, got {rank!r}")
    k = rank // 2
    J = np.zeros((rank, rank))
    J[:k, k:] = -np.eye(k)
    J[k:, :k] = np.eye(k)
    return J


def _xi_frames(chart: ContactChart, Pi, D, k: int) -> np.ndarray:
    """The one xi-frame rule: frames F (N, d, 2n), F^T D F = -``standard_J(2n)``,
    of the columns Pi e_j, j != k, given the xi-projections Pi and dlam D
    (N, d, d) of N points: symplectic Gram-Schmidt with the pairing of the
    first point kept at every point; SingularChart where a pair degenerates.
    As D X = 0, Pi Y = F u for u = J0 F^T D Y: no pseudo-inverse is needed."""

    def dlam(u, v):  # u . D v, point by point
        return np.einsum("ni,nij,nj->n", u, D, v)

    cols, es, fs = [Pi[:, :, j] for j in range(chart.dim) if j != k], [], []
    while cols:
        a = cols.pop(0)
        w = np.array([dlam(a, c) for c in cols])
        j = int(np.argmax(np.abs(w[:, 0])))
        w = w[j]
        if not np.all(np.abs(w) > _RANK_TOL * abs(w[0])):
            raise SingularChart(f"{chart.name}: the xi-frame of the axes other than {k} degenerates")
        scale = 1.0 / np.sqrt(np.abs(w))
        e, f = scale[:, None] * a, (np.sign(w) * scale)[:, None] * cols.pop(j)
        es.append(e)
        fs.append(f)
        cols = [c + dlam(f, c)[:, None] * e - dlam(e, c)[:, None] * f for c in cols]
    return np.stack(es + fs, axis=-1) if es else np.zeros(Pi.shape[:-1] + (0,))


def _pfaffian(A: np.ndarray):
    """Pfaffians of a stack (..., m, m) of antisymmetric matrices, shape (...).

    Skew-symmetric Parlett-Reid reduction with row pivoting (Wimmer 2012,
    ACM TOMS 38, arXiv:1102.3440): m/2 steps over the whole stack, each one
    swap and one rank-2 update, O(m^3) per matrix.  A zero pivot (a zero
    row) gives exactly 0, an odd order 0, and a single matrix a float.
    """
    A = np.array(A, dtype=float)
    *batch, m, _ = A.shape
    if m % 2:
        return np.zeros(batch) if batch else 0.0
    A = A.reshape((math.prod(batch), m, m))
    pf = np.ones(len(A))
    r = np.arange(len(A))
    for k in range(0, m - 1, 2):
        p = k + 1 + np.argmax(np.abs(A[:, k, k + 1 :]), axis=1)
        pf[p != k + 1] *= -1.0
        for B in (A, A.swapaxes(1, 2)):
            B[r, k + 1], B[r, p] = B[r, p], B[r, k + 1]
        piv = A[:, k, k + 1]
        pf *= piv
        tau = A[:, k, k + 2 :] / np.where(piv == 0.0, 1.0, piv)[:, None]
        col = A[:, k + 2 :, k + 1]
        A[:, k + 2 :, k + 2 :] += tau[:, :, None] * col[:, None, :] - col[:, :, None] * tau[:, None, :]
    return float(pf[0]) if not batch else pf.reshape(batch)


def contact_volume(chart: ContactChart, x):
    """Signed density of lam ^ (dlam)^n against the coordinate volume form.

    A point of shape (d,) gives a float; a stack (N, d) gives shape (N,).
    The chart is evaluated once per point (``_chart_forms``), and one
    stacked ``_pfaffian`` call takes the bordered matrices
    [[0, lam^T], [-lam, dlam]], whose Pfaffian times n! is the density.
    Its n + 1 pivots can multiply past the largest float even where lam and
    dlam are ``_bounded``: the product runs with float overflow silent, and
    a density that is not finite raises OutOfRange at the first such point.
    """
    x = _points(chart.dim, x)[0]
    L, D = _chart_forms(chart, x)
    B = np.zeros(L.shape[:-1] + (chart.dim + 1, chart.dim + 1))
    B[..., 0, 1:], B[..., 1:, 0], B[..., 1:, 1:] = L, -L, D
    with np.errstate(over="ignore", invalid="ignore"):
        vol = math.factorial(chart.n) * _pfaffian(B)
    bad = np.flatnonzero(~np.isfinite(vol))
    if bad.size:
        raise OutOfRange(f"{chart.name}: contact volume overflows a float {_at(x, None if x.ndim == 1 else bad[0])}")
    return vol
