"""Onsager-Machlup functional, action, and the measure-change forms.

The Lagrangian implemented here is

    L(x, v) = |f - v|^2_x / 2 + div f(x) / 2 - R(x) / 12,

with R the scalar curvature in the convention where the round sphere has
R > 0.  The sign of the curvature term is fixed by the exact Dirichlet
eigenvalue shift of small geodesic balls (positive curvature *raises* the
probability of staying in a small tube), and the package's Monte Carlo
ratio experiments confirm it.

The measure change between the lifted process and the radial reference
uses the spatial 1-form

    alpha_i = sum_j (a^j + b^j - c^j) g_ij,       b = f - gamma_dot,

its antisymmetrized radially-averaged kernel

    alpha_kernel_ij(t, x) = (1/2) int_0^1 s { d_i alpha_j - d_j alpha_i }(t, s x) ds

(the s-weight makes the stochastic Stokes identity exact for smooth forms),
and the trace-free spherical function

    beta(t, u) = -(d/12) sum_ij Ric_ij(gamma(t)) (u^i u^j - delta^ij / d),

which vanishes identically on Einstein manifolds.

On the closed-form (radial) charts the curl has a closed form.  There a
and c are parallel to x and g x = x, so g(a - c) is an exact radial form;
only g b = tl^2 b + (1 - tl^2)(u.b) u contributes.  For a drift with a
constant Jacobian A (b = A x - gamma_dot):

    curl_ij = P (x_i b_j - x_j b_i) + phi (A_ji - A_ij)
              + psi ((A^T x)_i x_j - (A^T x)_j x_i),

with phi = tl^2, psi = (1 - tl^2)/rho^2 and P = phi'(rho)/rho - psi
(``_RadialScalars.curl_scalars``).  ``alpha_kernel`` integrates these
scalars over s and needs no evaluation of alpha.  Custom and table fields,
shot charts and ``PrecomputedChart`` take the finite-difference route
(``_alpha_kernel_fd``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UnitVectorError
from .geometry import _GridTable, divergence_fd

__all__ = [
    "DriftField",
    "zero_field",
    "linear_field",
    "rotational_field",
    "table_field",
    "OmTerms",
    "ActionResult",
    "om_lagrangian",
    "om_action",
    "beta",
    "alpha_form",
    "alpha_kernel",
    "GirsanovForms",
    "girsanov_forms",
    "TabulatedForms",
]


# ---------------------------------------------------------------------------
# drift fields
# ---------------------------------------------------------------------------

@dataclass
class DriftField:
    """A drift vector field in chart coordinates, f(t, x) -> tangent vector.

    ``div_f`` may supply the analytic divergence; otherwise a 4th-order
    central difference is used with step ``h`` passed by the caller
    (1e-4 of the tube radius in the operations below).  ``jacobian`` is the
    constant matrix A of a field f(t, x) = A x, when known; radial charts
    then evaluate ``alpha_kernel`` in closed form.
    """

    d: int
    f: object
    div_f: object = None
    jacobian: np.ndarray = None

    def __call__(self, t, x):
        return np.asarray(self.f(t, np.asarray(x, dtype=float)), dtype=float)

    def divergence(self, t, x, h):
        if self.div_f is not None:
            return np.asarray(self.div_f(t, np.asarray(x, dtype=float)), dtype=float)
        return divergence_fd(lambda p: self(t, p), x, h)


def zero_field(d):
    return DriftField(d=d, f=lambda t, x: np.zeros_like(x),
                      div_f=lambda t, x: np.zeros(np.shape(x)[:-1]),
                      jacobian=np.zeros((d, d)))


def linear_field(A, d=None):
    """f(x) = A x; a scalar A means A * identity."""
    if np.isscalar(A):
        if d is None:
            raise ValueError("scalar linear field needs the dimension")
        A = float(A) * np.eye(d)
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    tr = float(np.trace(A))
    return DriftField(
        d=d,
        f=lambda t, x: np.einsum("ij,...j->...i", A, x),
        div_f=lambda t, x: np.full(np.shape(x)[:-1], tr),
        jacobian=A,
    )


def rotational_field(omega=1.0):
    """Planar rotation f(x) = omega (-x2, x1); divergence-free."""
    w = float(omega)
    return DriftField(
        d=2,
        f=lambda t, x: w * np.stack([-x[..., 1], x[..., 0]], axis=-1),
        div_f=lambda t, x: np.zeros(np.shape(x)[:-1]),
        jacobian=np.array([[0.0, -w], [w, 0.0]]),
    )


def table_field(axes, values):
    """Field sampled on a regular grid; linear interpolation between nodes.

    axes: tuple of d 1-d arrays; values: array of shape grid + (d,).
    """
    from scipy.interpolate import RegularGridInterpolator

    values = np.asarray(values, dtype=float)
    d = values.shape[-1]
    interp = RegularGridInterpolator(tuple(axes), values, bounds_error=False,
                                     fill_value=None)
    return DriftField(d=d, f=lambda t, x: interp(x))


# ---------------------------------------------------------------------------
# Lagrangian and action
# ---------------------------------------------------------------------------

@dataclass
class OmTerms:
    """The three Lagrangian terms at one curve point and their sum."""

    kinetic: float
    divergence: float
    curvature: float

    @property
    def total(self):
        return self.kinetic + self.divergence + self.curvature


def om_lagrangian(chart, field, t, v=None):
    """Evaluate the Lagrangian terms at the curve point (chart origin)."""
    d = chart.d
    if v is None:
        v = chart.velocity_frame(t)
    v = np.asarray(v, dtype=float)
    x0 = np.zeros(d)
    fv = field(t, x0)
    kinetic = 0.5 * float(np.dot(fv - v, fv - v))
    h = 1e-4 * chart.tube_radius
    divergence = 0.5 * float(field.divergence(t, x0, h))
    curvature = -chart.curvature_at(t).scalar / 12.0
    return OmTerms(kinetic=kinetic, divergence=divergence, curvature=curvature)


@dataclass
class ActionResult:
    """Action integral with a Richardson error estimate and term breakdown."""

    value: float
    error_est: float
    kinetic: float
    divergence: float
    curvature: float

    def predicted_ratio(self):
        return float(np.exp(-self.value))


def _simpson(y, dt):
    w = np.ones(len(y))
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, y) * dt / 3.0)


def om_action(chart, field, curve=None):
    """Composite-Simpson action of the Lagrangian along the curve grid."""
    curve = curve or chart.curve
    grid = curve.grid
    dt = grid[1] - grid[0]
    terms = [om_lagrangian(chart, field, t) for t in grid]
    vals = np.array([tm.total for tm in terms])
    if not np.all(np.isfinite(vals)):
        raise NumericError("non-finite Lagrangian value on the curve grid")
    full = _simpson(vals, dt)
    half = _simpson(vals[::2], 2 * dt)
    return ActionResult(
        value=full,
        error_est=abs(full - half) / 15.0,
        kinetic=_simpson(np.array([tm.kinetic for tm in terms]), dt),
        divergence=_simpson(np.array([tm.divergence for tm in terms]), dt),
        curvature=_simpson(np.array([tm.curvature for tm in terms]), dt),
    )


# ---------------------------------------------------------------------------
# spherical fluctuation function beta
# ---------------------------------------------------------------------------

def beta(curvature, u):
    """Trace-free Ricci contraction -(d/12)(Ric(u,u) - R/d) for unit u.

    Accepts batched unit vectors of shape (..., d); exactly zero whenever
    the Ricci tensor is isotropic.
    """
    u = np.asarray(u, dtype=float)
    norms = np.linalg.norm(u, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise UnitVectorError("beta requires unit vectors (||u| - 1| > 1e-12)")
    d = u.shape[-1]
    ric = curvature.ricci
    quad = np.einsum("...i,ij,...j->...", u, ric, u)
    return -(d / 12.0) * (quad - curvature.scalar / d)


# ---------------------------------------------------------------------------
# the 1-form alpha and its kernel
# ---------------------------------------------------------------------------

def alpha_form(chart, field, t, x):
    """Covector alpha_i = sum_j (a + b - c)^j g_ij with b = f - gamma_dot."""
    x = np.asarray(x, dtype=float)
    a = chart.coriolis(t, x)
    c = chart.bessel_drift(t, x)
    b = field(t, x) - chart.velocity_frame(t)
    g = chart.metric(t, x)
    return np.einsum("...ij,...j->...i", g, a + b - c)


_GL_CACHE = {}


def _gauss_legendre_01(n):
    if n not in _GL_CACHE:
        nodes, weights = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (0.5 * (nodes + 1.0), 0.5 * weights)
    return _GL_CACHE[n]


def alpha_kernel(chart, field, t, x, n_gauss=8):
    """Antisymmetric kernel K_ij(t,x) = (1/2) int_0^1 s curl(alpha)(t,sx) ds.

    Radial Gauss-Legendre quadrature in s.  On radial charts with a
    constant-Jacobian field the curl is closed form (see the module
    docstring); otherwise it comes from ``_alpha_kernel_fd``.  The result
    is exactly antisymmetric by construction.
    """
    A = field.jacobian
    if A is None or not chart.is_radial:
        return _alpha_kernel_fd(chart, field, t, x, n_gauss)
    x = np.asarray(x, dtype=float)
    d = chart.d
    s, w = _gauss_legendre_01(n_gauss)
    rho2 = np.einsum("...i,...i->...", x, x)
    phi, psi, P = chart._scalars.curl_scalars(np.multiply.outer(s * s, rho2))
    # s-moments of the curl scalars; b(s x) = s A x - v
    I_phi = np.tensordot(w * s, phi, 1)[..., None]
    I_P1 = np.tensordot(w * s ** 2, P, 1)[..., None]
    I_P2 = np.tensordot(w * s ** 3, P, 1)[..., None]
    I_psi = np.tensordot(w * s ** 3, psi, 1)[..., None]
    iu, ju = np.triu_indices(d, 1)

    def wedge(a, b):
        return a[..., iu] * b[..., ju] - a[..., ju] * b[..., iu]

    v = chart.velocity_frame(t)
    upper = 0.5 * (I_P2 * wedge(x, x @ A.T) - I_P1 * wedge(x, v)
                   + I_phi * (A.T - A)[iu, ju] - I_psi * wedge(x, x @ A))
    K = np.zeros(x.shape[:-1] + (d, d))
    K[..., iu, ju] = upper
    K[..., ju, iu] = -upper
    return K


def _alpha_kernel_fd(chart, field, t, x, n_gauss=8):
    """``alpha_kernel`` with the curl from 4th-order central differences of
    ``alpha_form`` (step 1e-3 of the tube radius); valid for any chart and
    field."""
    x = np.asarray(x, dtype=float)
    d = chart.d
    h = 1e-3 * chart.tube_radius
    nodes, weights = _gauss_legendre_01(n_gauss)
    K = np.zeros(x.shape[:-1] + (d, d))
    for s, w in zip(nodes, weights):
        pts = s * x
        D = np.empty(x.shape[:-1] + (d, d))  # D[..., i, j] = d_i alpha_j at s x
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            der = (alpha_form(chart, field, t, pts - 2 * h * e)
                   - 8 * alpha_form(chart, field, t, pts - h * e)
                   + 8 * alpha_form(chart, field, t, pts + h * e)
                   - alpha_form(chart, field, t, pts + 2 * h * e)) / (12 * h)
            D[..., i, :] = der
        K += (w * s) * (D - np.swapaxes(D, -1, -2))
    return 0.5 * K


@dataclass
class GirsanovForms:
    """Bundle of the measure-change ingredients for one (chart, field) pair."""

    chart: object
    field: object

    def b(self, t, x):
        return self.field(t, np.asarray(x, dtype=float)) - self.chart.velocity_frame(t)

    def alpha(self, t, x):
        return alpha_form(self.chart, self.field, t, x)

    def alpha_ij(self, t, x):
        return alpha_kernel(self.chart, self.field, t, x)

    def beta(self, t, u):
        return beta(self.chart.curvature_at(t), u)


def girsanov_forms(chart, field):
    return GirsanovForms(chart=chart, field=field)


class TabulatedForms(GirsanovForms):
    """Measure-change forms with the antisymmetric kernel sampled on a grid.

    Only valid for time-independent configurations (constant curve,
    autonomous field); used to keep per-step bookkeeping affordable on
    numerically shot charts.
    """

    def __init__(self, chart, field, n_nodes=17):
        if chart.curve.kind != "constant":
            raise ValueError("tabulated forms need a constant curve")
        super().__init__(chart=chart, field=field)
        self._kernel = _GridTable(
            lambda x: alpha_kernel(chart, field, 0.0, x),
            chart.tube_radius, n_nodes, chart.d, -1.0)
        self._curv = chart.curvature_at(0.0)

    def alpha_ij(self, t, x):
        return self._kernel(x)

    def beta(self, t, u):
        return beta(self._curv, u)
