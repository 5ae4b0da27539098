"""Fermi-coordinate charts along a curve and the geometric fields they carry.

A chart maps tube coordinates ``x`` (|x| < tube_radius) around a moving
center ``gamma(t)`` to the manifold through the exponential map of a
parallel-transported orthonormal frame.  In these coordinates the metric
is the identity on the curve and satisfies the radial identities
``g_inv(t,x) x = x`` and ``sigma(t,x) x = x``.

Built-in models:

* ``euclidean(d)`` -- flat; the chart metric is identically the identity.
* ``sphere(d, radius)`` / ``hyperbolic(d, scale)`` -- constant sectional
  curvature K = +1/radius^2 / -1/scale^2.  The chart metric has the closed
  radial form  g = u u^T + tl(rho)^2 (I - u u^T)  with tl = phi(rho)/rho
  and phi = sin(sqrt(K) rho)/sqrt(K) resp. sinh.
* ``warped_diagonal(d, profile)`` -- the diagonal metric
  g_ii(y) = 1 + (i/d)(p(|y|) - p(0)) in its own global coordinates; charts
  are built numerically by geodesic shooting with a transported frame.

Charts.  ``fermi_chart`` returns one of three classes, one per evaluation
rule.  Each supplies ``metric`` and ``curvature_at`` and may replace the
per-point evaluation ``at``; their base ``MetricChart`` holds the frame
velocity, the inverse metric and sqrt(det g) of ``metric``, and one body
for each of ``sigma``, ``sigma_apply``, ``coriolis`` and ``bessel_drift``,
which reads ``self.at(t, x)``:

* ``RadialChart`` -- closed forms for every evaluator (constant curvature).
* ``ShotChart`` -- the metric by geodesic shooting in an ambient metric, from
  the Jacobi fields integrated along each geodesic, the curvature from its
  Christoffel symbols (warped models, or method="shoot").  It keeps the
  base ``at``.
* ``PrecomputedChart`` -- a time-independent shot chart sampled once on a
  cube grid: the metric g, sigma and the Coriolis drift a are tabulated
  from those node values (a by 4th-order differences on the node grid)
  and interpolated by cubic B-splines.

Per-point evaluation.  ``chart.at(t, x)`` evaluates a chart at a batch of
points once per step of the steppers in :mod:`omtube.sde` and
:mod:`omtube.coupling`: ``sigma``, ``sigma_apply(v)``, ``coriolis()``,
``bessel_drift()`` and ``G()`` = tr((sigma - I)^2) / |x|^4.  The base
``MetricChart.at`` is the metric-only route, also the tests' reference on
every chart: it evaluates the metric once per point, at x (whose g^-1 gives
sigma by eigendecomposition and c by its trace) and at each point of the
4th-order Coriolis stencil.  A ``RadialChart`` point computes rho = |x|,
u = x/rho and 1/tl(rho) once and holds every radial formula, G in closed
form.  A ``PrecomputedChart`` point looks sigma and a up in one lookup,
and takes c from that sigma (tr g^-1 = sum_ij sigma_ij^2).

Conventions.  ``metric`` is the matrix (g_ij) defining lengths,
``metric_inv`` = (g^ij) is the diffusion coefficient, and
``sigma = metric_inv^(1/2)`` is symmetric.  The Coriolis drift is the
first-order drift of the generator (1/2) Laplace-Beltrami written in
non-divergence form,

    a^i = (1 / (2 sqrt(g))) sum_j d_j ( sqrt(g) g^ij ),

so that div a -> -R/3 on the curve (R the scalar curvature).  The
Besselization drift is c^i = x^i / (2 |x|^2) sum_j (1 - g^jj), which is
parallel to x by construction and makes |Y| of dY = sigma dB + c dt an
exact Bessel(d) process.

All chart evaluators accept batched points ``x`` of shape ``(..., d)``.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ChartDomainError, ConstructionError, NumericError

__all__ = [
    "ManifoldModel",
    "euclidean",
    "sphere",
    "hyperbolic",
    "warped_diagonal",
    "Profile",
    "PROFILES",
    "CurveSpec",
    "constant_curve",
    "line_curve",
    "great_circle_curve",
    "table_curve",
    "embedded_curve",
    "ambient_curve",
    "MetricChart",
    "RadialChart",
    "ShotChart",
    "PrecomputedChart",
    "fermi_chart",
    "CurvatureData",
    "curvature_from_chart_fd",
    "expansion_order_check",
    "divergence_fd",
]


def _jacobian(f, x, h):
    """out[..., j] = d_j f(x) for points x of shape (..., d): 4th-order
    central differences of step h, from one call of f on the 4 d stencil
    points stacked in front of x's shape, so f must treat each point alone."""
    x = np.asarray(x, dtype=float)
    f4 = f(np.stack([x + c * h * e for e in np.eye(x.shape[-1]) for c in (-2, -1, 1, 2)]))
    return np.stack([(f4[k] - 8 * f4[k + 1] + 8 * f4[k + 2] - f4[k + 3]) / (12 * h)
                     for k in range(0, len(f4), 4)], axis=-1)


def _rowdot(a, b):
    """sum_i a[..., i] b[..., i] left to right, as ``np.linalg.norm`` sums up
    to 5 terms, without numpy's slow reduction over a short last axis."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _rowscale(v, a, op=np.multiply):
    """op(v, a[..., None]) one column at a time, for a scalar a or one a per
    row of v: broadcasting a over the short last axis runs numpy's inner
    loop once per row, about 3x slower."""
    out = np.empty(v.shape)
    for i in range(out.shape[-1]):
        op(v[..., i], a, out=out[..., i])
    return out


def _leaddot(a, b):
    """sum_i a[i] b[i] over the leading (component) axis, left to right:
    ``_rowdot`` for arrays whose points run along the last axis."""
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out += a[i] * b[i]
    return out


def _horner(w, coef):
    """sum_n coef[n] w^n by the operations of ``polyval``, in place on arrays."""
    out = coef[-1] + w * 0.0
    for c in coef[-2::-1]:
        out *= w
        out += c
    return out


def _rk4(rate, t0, state, h, n, t1=None):
    """n classical RK4 steps of size h of a state given as a list of arrays,
    d state / dt = rate(t, state); step j starts at t = t0 + j h.

    With an end time ``t1``, h and n hold a step size and a step count per
    lane, the last axis of every state array, with n non-increasing along
    it: lane i takes n[i] - 1 steps of size h[i] and a last one that ends
    at t1.  Step j advances only the lanes still stepping, a prefix that
    shrinks, and hands ``rate`` that prefix and its times; each lane's
    values do not depend on the other lanes."""

    def step(t, state, h):
        k1 = rate(t, state)
        k2 = rate(t + h / 2, [a + h / 2 * k for a, k in zip(state, k1)])
        k3 = rate(t + h / 2, [a + h / 2 * k for a, k in zip(state, k2)])
        k4 = rate(t + h, [a + h * k for a, k in zip(state, k3)])
        return [a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
                for a, b1, b2, b3, b4 in zip(state, k1, k2, k3, k4)]

    if t1 is None:
        for j in range(n):
            state = step(t0 + j * h, state, h)
        return state
    out = [np.empty_like(a) for a in state]
    last = t1 - (t0 + (n - 1) * h)
    live = len(n)
    for j in range(int(np.max(n, initial=0))):
        ending = int(np.count_nonzero(n > j + 1))  # lanes [ending, live) end at this step
        hj = np.concatenate([h[:ending], last[ending:live]])
        state = step(t0 + j * h[:live], [a[..., :live] for a in state], hj)
        for o, a in zip(out, state):
            o[..., ending:live] = a[..., ending:]
        live = ending
    return out


# ---------------------------------------------------------------------------
# profiles for the warped-diagonal model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Smooth even radial profile p(rho) with optional analytic derivatives.

    Evenness at 0 (p'(0) = 0) keeps the diagonal metric smooth across the
    origin of the model's coordinates.  Derivatives fall back to 4th-order
    central differences when not supplied: p' of p with step 1e-4, p'' of
    p' with step 1e-3.
    """

    name: str
    f: object
    df: object = None
    d2f: object = None

    def __call__(self, rho):
        return self.f(rho)

    def deriv(self, rho):
        if self.df is not None:
            return self.df(rho)
        return _jacobian(self.f, np.asarray(rho, dtype=float)[..., None], 1e-4)[..., 0, 0]

    def deriv2(self, rho):
        if self.d2f is not None:
            return self.d2f(rho)
        return _jacobian(self.deriv, np.asarray(rho, dtype=float)[..., None], 1e-3)[..., 0, 0]


def _bump(a):
    return Profile(
        name=f"bump:{a}",
        f=lambda r: 1.0 + a * r * r * np.exp(-r * r),
        df=lambda r: a * (2 * r - 2 * r ** 3) * np.exp(-r * r),
        d2f=lambda r: a * (2 - 10 * r * r + 4 * r ** 4) * np.exp(-r * r),
    )


PROFILES = {
    "bump": _bump(0.35),
    "bump_strong": _bump(0.8),
    "well": Profile(
        name="well",
        f=lambda r: 1.0 - 0.3 * r * r / (1.0 + r * r),
        df=lambda r: -0.6 * r / (1.0 + r * r) ** 2,
        d2f=lambda r: -0.6 * (1.0 - 3 * r * r) / (1.0 + r * r) ** 3,
    ),
}


def _resolve_profile(profile):
    if isinstance(profile, Profile):
        return profile
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ConstructionError(f"unknown profile {profile!r}; have {sorted(PROFILES)}")
        return PROFILES[profile]
    if callable(profile):
        return Profile(name="custom", f=profile)
    raise ConstructionError("profile must be a name, Profile, or callable")


# ---------------------------------------------------------------------------
# manifold models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldModel:
    """Descriptor of a built-in manifold."""

    kind: str
    dim: int
    radius: float = 1.0
    curvature_scale: float = 1.0
    profile: object = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConstructionError("dimension must be >= 1")
        if self.kind not in ("euclidean", "sphere", "hyperbolic", "warped"):
            raise ConstructionError(f"unknown model kind {self.kind!r}")
        if self.kind == "sphere" and self.radius <= 0:
            raise ConstructionError("sphere radius must be positive")
        if self.kind == "hyperbolic" and self.curvature_scale <= 0:
            raise ConstructionError("curvature scale must be positive")
        if self.kind == "warped" and self.profile is None:
            raise ConstructionError("warped model needs a profile")

    @property
    def curv(self):
        """Sectional curvature for constant-curvature kinds, else None."""
        if self.kind == "euclidean":
            return 0.0
        if self.kind == "sphere":
            return 1.0 / self.radius ** 2
        if self.kind == "hyperbolic":
            return -1.0 / self.curvature_scale ** 2
        return None


def euclidean(d):
    return ManifoldModel("euclidean", d)


def sphere(d, radius=1.0):
    return ManifoldModel("sphere", d, radius=radius)


def hyperbolic(d, curvature_scale=1.0):
    return ManifoldModel("hyperbolic", d, curvature_scale=curvature_scale)


def warped_diagonal(d, profile="bump"):
    return ManifoldModel("warped", d, profile=_resolve_profile(profile))


# ---------------------------------------------------------------------------
# radial scalars.  Each is an even function of rho, so a power series in
# w = K rho^2, the same series for both signs of K.  Below W_CUT (|w| < 0.25)
# it is summed by Horner; above, it has one closed form in y = sqrt|w| with
# (s, c) = (sin y, cos y) for K > 0 and (sinh y, cosh y) for K < 0.  With
# y cot y = sum_n c_n w^n (y coth y for w < 0, the same c_n), h = (d - 1) K / 2
# and G(w) = (tl^2 - 1)/w = sum_m a_m w^m:
#     tl = s/y                      = sum_n (-w)^n/(2n+1)!
#     A/rho = h (y c/s - (y/s)^2)/w = h sum_n 2n c_n w^(n-1)
#     C/rho = h (1 - (y/s)^2)/w     = h sum_n (2n - 1) c_n w^(n-1)
# with y/s = sum_n r_n w^n, the scalar of G = (d - 1)(1/tl - 1)^2/rho^4 =
# (d - 1)(K q)^2, free of the cancellation in 1/tl - 1,
#     q = (1/tl - 1)/w = (y - s)/(s w) = sum_n r_(n+1) w^n,
# and the curl scalars of the 1-form g b (see ``om.alpha_kernel``)
#     phi = tl^2 = 1 + w G,    psi = -K G,
#     P = 2 K d(tl^2)/dw - psi = K sum_m (2m+3) a_m w^m.
# Each series stops where its next term falls below 1e-16 of its value at
# |w| = W_CUT; the closed forms lose at most ~6 eps / |w| to cancellation.
# At w = 0 (K = 0 or rho = 0) each series gives its exact limit.
# ---------------------------------------------------------------------------

_W_CUT = 0.25


def _over_sinc(num, n):
    """The first n coefficients of sum_k num(k) w^k divided by the sinc
    series, in floats: y cot y (c_n, within 1e-15 relative of their
    Bernoulli-number values) for the cos series, y/s (r_n) for 1."""
    c = []
    for k in range(n):
        c.append(num(k) - sum(
            (-1.0) ** j / math.factorial(2 * j + 1) * c[k - j] for j in range(1, k + 1)))
    return c


_COT = _over_sinc(lambda k: (-1.0) ** k / math.factorial(2 * k), 12)
_TL_SERIES = tuple((-1.0) ** n / math.factorial(2 * n + 1) for n in range(7))
_Q_SERIES = tuple(_over_sinc(lambda k: float(k == 0), 12)[1:])
_A_SERIES = tuple(2 * n * c for n, c in enumerate(_COT) if n)
_C_SERIES = tuple((2 * n - 1) * c for n, c in enumerate(_COT) if n)
_G_SERIES = tuple((-1) ** (m + 1) * 2.0 ** (2 * m + 3) / math.factorial(2 * m + 4)
                  for m in range(8))
_P_SERIES = tuple((2 * m + 3) * a for m, a in enumerate(_G_SERIES))


class _RadialScalars:
    """Scalar chart profiles for a constant-curvature model, as functions of
    the squared radius rho2 by the rule above."""

    def __init__(self, K, d):
        self.K = float(K)
        self.d = int(d)
        self._h = 0.5 * (self.d - 1) * self.K

    def _rule(self, rho2, series, closed):
        """At w = K rho2: series(w) where |w| < W_CUT and closed(w, y, s, c)
        elsewhere, each evaluated on its own lanes.  Leading axes of the
        result may stack several scalars."""
        w = self.K * np.asarray(rho2, dtype=float)
        small = np.abs(w) < _W_CUT
        if small.all():
            return series(w)
        big = w[~small]
        y = np.sqrt(np.abs(big))
        hi = closed(big, y, *((np.sin(y), np.cos(y)) if self.K > 0 else (np.sinh(y), np.cosh(y))))
        out = np.empty(hi.shape[:-1] + w.shape)
        out[..., ~small] = hi
        out[..., small] = series(w[small])
        return out

    def tl(self, rho2):
        """Transverse eigenvalue of sigma^-1, so the lower metric has tl^2."""
        return self._rule(rho2, lambda w: _horner(w, _TL_SERIES), lambda w, y, s, c: s / y)

    def q(self, rho2):
        """(1/tl - 1)/w, without the cancellation of 1/tl - 1."""
        return self._rule(rho2, lambda w: _horner(w, _Q_SERIES),
                          lambda w, y, s, c: (y - s) / (s * w))

    def coriolis_over_rho(self, rho2):
        """A(rho)/rho where the Coriolis drift is a = A(rho) x/rho."""
        return self._rule(rho2, lambda w: self._h * _horner(w, _A_SERIES),
                          lambda w, y, s, c: self._h * (y * c / s - (y / s) ** 2) / w)

    def bessel_over_rho(self, rho2):
        """C(rho)/rho where the Besselization drift is c = C(rho) x/rho."""
        return self._rule(rho2, lambda w: self._h * _horner(w, _C_SERIES),
                          lambda w, y, s, c: self._h * (1.0 - (y / s) ** 2) / w)

    def curl_scalars(self, rho2):
        """(phi, psi, P) stacked on a leading axis: phi = tl^2,
        psi = (1 - tl^2)/rho^2 and P = phi'(rho)/rho - psi, the
        coefficients of curl(g b)."""
        K = self.K

        def series(w):
            G = _horner(w, _G_SERIES)
            return np.stack((1.0 + w * G, -K * G, K * _horner(w, _P_SERIES)))

        def closed(w, y, s, c):
            s2, y2 = s * s, np.abs(w)
            scale = abs(K) / (y2 * y2)
            return np.stack((s2 / y2, scale * (y2 - s2), scale * (2.0 * y * s * c - s2 - y2)))

        return self._rule(rho2, series, closed)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

@dataclass
class CurveSpec:
    """A curve gamma on the manifold with duration T and a uniform grid.

    ``gamma`` / ``gamma_dot`` map t to a point / velocity in the model's
    reference coordinates (embedding for sphere and hyperbolic, global
    coordinates for euclidean and warped).  ``vframe``, when set, gives the
    velocity components in the chart's parallel frame; charts for moving
    curves on curved models compute it by frame transport if absent.
    """

    T: float
    n_grid: int
    kind: str
    params: dict
    gamma: object = None
    gamma_dot: object = None
    vframe: object = None

    def __post_init__(self):
        if self.T <= 0:
            raise ConstructionError("curve duration T must be positive")
        if self.n_grid < 2 or self.n_grid % 2 != 0:
            raise ConstructionError("n_grid must be an even integer >= 2")

    @property
    def grid(self):
        return np.linspace(0.0, self.T, self.n_grid + 1)


def constant_curve(T, point=None, n_grid=64):
    """Curve that sits at one point; the chart never moves."""
    pt = None if point is None else np.asarray(point, dtype=float)
    return CurveSpec(
        T=T, n_grid=n_grid, kind="constant", params={"point": pt},
        gamma=(lambda t, p=pt: p) if pt is not None else None,
        gamma_dot=(lambda t, p=pt: np.zeros_like(p)) if pt is not None else None,
    )


def line_curve(v, T, n_grid=64, origin=None):
    """Straight line gamma(t) = origin + v t on a euclidean model."""
    v = np.asarray(v, dtype=float)
    x0 = np.zeros_like(v) if origin is None else np.asarray(origin, dtype=float)
    return CurveSpec(
        T=T, n_grid=n_grid, kind="line", params={"v": v, "origin": x0},
        gamma=lambda t: x0 + v * t,
        gamma_dot=lambda t: v + 0.0 * t if np.isscalar(t) else np.broadcast_to(v, (np.size(t), v.size)).copy(),
        vframe=lambda t: v,
    )


def great_circle_curve(model, speed, T, n_grid=64):
    """Unit-speed-scaled great circle through the sphere's base point.

    The tangent of a geodesic is parallel, so the frame component of the
    velocity is the constant vector (speed, 0, ..., 0).
    """
    if model.kind != "sphere":
        raise ConstructionError("great_circle_curve requires a sphere model")
    r = model.radius
    d = model.dim

    def gamma(t):
        w = speed * t / r
        p = np.zeros(d + 1)
        p[0] = r * math.sin(w)
        p[-1] = r * math.cos(w)
        return p

    def gamma_dot(t):
        w = speed * t / r
        p = np.zeros(d + 1)
        p[0] = speed * math.cos(w)
        p[-1] = -speed * math.sin(w)
        return p

    vf = np.zeros(d)
    vf[0] = speed
    return CurveSpec(T=T, n_grid=n_grid, kind="great_circle",
                     params={"speed": speed}, gamma=gamma, gamma_dot=gamma_dot,
                     vframe=lambda t: vf)


def table_curve(times, points, T=None, n_grid=64):
    """Curve through sampled points (euclidean models), cubic in t."""
    from scipy.interpolate import CubicSpline

    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float)
    if times.ndim != 1 or points.shape[0] != times.size:
        raise ConstructionError("table curve needs matching times and points")
    spl = CubicSpline(times, points, axis=0)
    dspl = spl.derivative()
    T = float(times[-1]) if T is None else T
    return CurveSpec(T=T, n_grid=n_grid, kind="table",
                     params={"times": times, "points": points},
                     gamma=lambda t: spl(t), gamma_dot=lambda t: dspl(t),
                     vframe=lambda t: dspl(t))


def embedded_curve(gamma, gamma_dot, T, n_grid=64):
    """Moving curve given in embedding coordinates (sphere / hyperbolic)."""
    return CurveSpec(T=T, n_grid=n_grid, kind="embedded", params={},
                     gamma=gamma, gamma_dot=gamma_dot, vframe=None)


def ambient_curve(gamma, gamma_dot, T, n_grid=64):
    """Moving curve given in the global coordinates of a warped model."""
    return CurveSpec(T=T, n_grid=n_grid, kind="ambient", params={},
                     gamma=gamma, gamma_dot=gamma_dot, vframe=None)


# ---------------------------------------------------------------------------
# curvature container
# ---------------------------------------------------------------------------

@dataclass
class CurvatureData:
    """Curvature tensors at the chart origin, in the orthonormal frame.

    riemann[i,j,k,l] follows the convention with
    R_ijkl = K (delta_ik delta_jl - delta_il delta_jk) on a space of constant
    sectional curvature K, ricci[j,l] = sum_i riemann[i,j,i,l] and
    scalar = trace(ricci); the round sphere has positive scalar curvature.
    """

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    at: tuple


def _constant_curvature_data(K, d, t):
    eye = np.eye(d)
    riem = K * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    ricci = K * (d - 1) * eye
    return CurvatureData(riemann=riem, ricci=ricci, scalar=K * d * (d - 1), at=(t, np.zeros(d)))


# ---------------------------------------------------------------------------
# ambient metrics (for shot charts)
# ---------------------------------------------------------------------------

class DiagonalAmbient:
    """Diagonal metric g_ii(y) = w_i(|y|).  Its dense Christoffels serve the
    curvature, the frames and the tests; ``geodesic_rates`` never forms them."""

    def __init__(self, d, warp_scales, profile):
        self.d = int(d)
        self.beta = np.asarray(warp_scales, dtype=float)
        self.profile = profile
        self.p0 = float(profile(0.0))

    def _w(self, rho):
        p = self.profile(rho)
        return 1.0 + self.beta * (np.asarray(p)[..., None] - self.p0)

    def _dw(self, rho):
        return self.beta * np.asarray(self.profile.deriv(rho))[..., None]

    def _d2w(self, rho):
        return self.beta * np.asarray(self.profile.deriv2(rho))[..., None]

    def metric(self, y):
        y = np.asarray(y, dtype=float)
        rho = np.linalg.norm(y, axis=-1)
        w = self._w(rho)
        g = np.zeros(y.shape + (self.d,))
        idx = np.arange(self.d)
        g[..., idx, idx] = w
        return g

    def grad_w(self, y):
        """d_j w_k = w_k'(rho) u_j as [..., k, j], u = y / rho; within 1e-12
        of the origin its limit beta_k p''(0) y_j."""
        y = np.asarray(y, dtype=float)
        rho = np.linalg.norm(y, axis=-1)
        small = rho <= 1e-12
        safe = np.where(small, 1.0, rho)
        dw = np.where(small[..., None], self.beta * self.profile.deriv2(0.0), self._dw(rho))
        return dw[..., :, None] * (y / safe[..., None])[..., None, :]

    def christoffel(self, y):
        """Gamma^k_ij as [..., k, i, j]."""
        y = np.asarray(y, dtype=float)
        w = self._w(np.linalg.norm(y, axis=-1))
        dw = self.grad_w(y)  # [..., k, j]
        d = self.d
        eye = np.eye(d)
        term = (np.einsum("ki,...kj->...kij", eye, dw)
                + np.einsum("kj,...ki->...kij", eye, dw)
                - np.einsum("ij,...ik->...kij", eye, dw))
        return 0.5 * term / w[..., :, None, None]

    def geodesic_rates(self, y, v, J, Jd):
        """The geodesic acceleration acc = -Gamma^k_ij v^i v^j at (y, v) and
        its linearization D acc (J, Jd) along the columns of J (in y) and Jd
        (in v), from one evaluation of rho, w, p' and p''.  Component axes
        go first and points last: y and v are (d, ...), J and Jd (d, d, ...)
        with J[a, c] the a-th component of column c; acc is (d, ...) and the
        linearization (d, d, ...), laid out as J.

        Both are closed form.  With grad p = q y, q = p'(rho)/rho (p''(0) at
        the origin), acc = -B/(2w) where B = 2 beta v (grad p . v) - grad p
        (beta . v^2).  Along (dy, dv): d grad p = (p'' - q)(u . dy) u + q dy,
        dw = beta (grad p . dy), and d acc = (dw / 2w^2) B - dB / (2w).
        """
        rho = np.sqrt(_leaddot(y, y))
        small = rho <= 1e-12
        safe = np.where(small, 1.0, rho)
        u = y / safe
        beta = self.beta.reshape((-1,) + (1,) * rho.ndim)
        dp, d2p = self.profile.deriv(rho), self.profile.deriv2(rho)
        w = 1.0 + beta * (self.profile(rho) - self.p0)

        q = np.where(small, self.profile.deriv2(0.0), dp / safe)
        grad, bv, a = q * y, beta * v, (d2p - q) * u  # d grad p = a (u . dy) + q dy
        grad_v, beta_v2 = _leaddot(grad, v), _leaddot(bv, v)
        B = 2 * bv * grad_v - grad * beta_v2
        uJ = _leaddot(u, J)
        dgrad_v = _leaddot(v, a) * uJ + q * _leaddot(v, J) + _leaddot(grad, Jd)
        # 2w d acc = (dw / w) B - dB, dB = 2 beta (Jd grad_v + v dgrad_v)
        #   - dgrad beta_v2 - grad dbeta_v2, summed term by term over (k, c)
        jvp = (beta * B / w)[:, None] * _leaddot(grad, J)
        jvp -= (2 * beta * grad_v)[:, None] * Jd
        jvp -= (2 * bv)[:, None] * dgrad_v
        jvp += (beta_v2 * a)[:, None] * uJ
        jvp += (beta_v2 * q) * J
        jvp += grad[:, None] * (2 * _leaddot(bv, Jd))
        jvp /= (2 * w)[:, None]
        return -B / (2 * w), jvp

    def dchristoffel(self, y):
        """d_l Gamma^k_ij as [..., l, k, i, j], closed form from w, w', w''."""
        y = np.asarray(y, dtype=float)
        rho = np.linalg.norm(y, axis=-1)
        safe = np.where(rho > 1e-12, rho, 1.0)
        u = y / safe[..., None]
        w = self._w(rho)
        dwamp = self._dw(rho)
        d2wamp = self._d2w(rho)
        d = self.d
        eye = np.eye(d)
        uu = u[..., :, None] * u[..., None, :]
        # Hessian of w_k: [..., k, j, l]
        perp = eye - uu
        small = (rho <= 1e-12)[..., None, None, None]
        hess = (d2wamp[..., :, None, None] * uu[..., None, :, :]
                + (dwamp / safe[..., None])[..., :, None, None] * perp[..., None, :, :])
        hess = np.where(small, d2wamp[..., :, None, None] * eye, hess)
        term = (np.einsum("ki,...kjl->...lkij", eye, hess)
                + np.einsum("kj,...kil->...lkij", eye, hess)
                - np.einsum("ij,...ikl->...lkij", eye, hess))
        base = 0.5 * term / w[..., None, :, None, None]
        gamma = self.christoffel(y)
        ratio = self.grad_w(y) / w[..., :, None]  # [..., k, l] = d_l w_k / w_k
        corr = -np.einsum("...kij,...kl->...lkij", gamma, ratio)
        return base + corr


class CallableAmbient:
    """Ambient metric from a plain callable; FD Christoffels (test oracle use)."""

    h = 1e-5  # finite-difference step of the metric derivatives

    def __init__(self, d, metric_fn):
        self.d = int(d)
        self.metric_fn = metric_fn

    def metric(self, y):
        return self.metric_fn(np.asarray(y, dtype=float))

    def metric_inv(self, y):
        return np.linalg.inv(self.metric(y))

    def _dmetric(self, y):
        # [..., m, i, j] = d_m g_ij
        return np.moveaxis(_jacobian(self.metric_fn, y, self.h), -1, -3)

    def christoffel(self, y):
        dg = self._dmetric(y)
        ginv = self.metric_inv(y)
        tmp = (np.einsum("...imj->...mij", dg) + np.einsum("...jmi->...mij", dg)
               - np.einsum("...mij->...mij", dg))
        # tmp[m,i,j] = d_i g_mj + d_j g_mi - d_m g_ij
        return 0.5 * np.einsum("...km,...mij->...kij", ginv, tmp)

    def geodesic_rates(self, y, v, J, Jd):
        """``DiagonalAmbient.geodesic_rates`` from the finite-difference
        Christoffels: acc = -Gamma^k_ij v^i v^j and its linearization
        -d_l Gamma^k_ij J^l v^i v^j - 2 Gamma^k_ij v^i Jd^j, in its layout."""
        y, v = (np.moveaxis(a, 0, -1) for a in (y, v))
        J, Jd = (np.moveaxis(a, (0, 1), (-2, -1)) for a in (J, Jd))
        gam = self.christoffel(y)
        acc = -np.einsum("...kij,...i,...j->...k", gam, v, v)
        jvp = (-np.einsum("...lkij,...lc,...i,...j->...kc", self.dchristoffel(y), J, v, v)
               - 2 * np.einsum("...kij,...i,...jc->...kc", gam, v, Jd))
        return np.moveaxis(acc, -1, 0), np.moveaxis(jvp, (-2, -1), (0, 1))

    def dchristoffel(self, y):
        y = np.asarray(y, dtype=float)
        h = 10 * self.h
        out = np.zeros(y.shape[:-1] + (self.d,) * 4)
        for m in range(self.d):
            e = np.zeros(self.d)
            e[m] = 1.0
            out[..., m, :, :, :] = (self.christoffel(y + h * e)
                                    - self.christoffel(y - h * e)) / (2 * h)
        return out


def ambient_curvature(ambient, y):
    """Riemann tensor (all indices down) of an ambient metric at y.

    Sign fixed so that the round sphere comes out with positive sectional
    curvature under the package convention.
    """
    gam = ambient.christoffel(y)
    dgam = ambient.dchristoffel(y)
    # R^m_{jkl} = d_k Gamma^m_{lj} - d_l Gamma^m_{kj}
    #           + Gamma^m_{ka} Gamma^a_{lj} - Gamma^m_{la} Gamma^a_{kj}
    up = (np.einsum("...kmlj->...mjkl", dgam) - np.einsum("...lmkj->...mjkl", dgam)
          + np.einsum("...mka,...alj->...mjkl", gam, gam)
          - np.einsum("...mla,...akj->...mjkl", gam, gam))
    g = ambient.metric(y)
    low = np.einsum("...im,...mjkl->...ijkl", g, up)
    return low


# ---------------------------------------------------------------------------
# frame transport along moving curves
# ---------------------------------------------------------------------------

def _transport(curve, E, rhs, components):
    """Transport the frame E (columns) with dE/dt = rhs(t, E) over the curve
    grid, four RK4 steps per cell.  Returns cubic splines in t of the
    frames and of components(t, E), the frame components of gamma_dot."""
    from scipy.interpolate import CubicSpline

    grid = curve.grid
    n_sub = 4
    frames = [E.copy()]
    vfr = [components(grid[0], E)]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        E, = _rk4(lambda t, s: [rhs(t, s[0])], t0, [E], (t1 - t0) / n_sub, n_sub)
        frames.append(E.copy())
        vfr.append(components(t1, E))
    return (CubicSpline(grid, np.array(frames), axis=0),
            CubicSpline(grid, np.array(vfr), axis=0))


def _transport_frames_ambient(ambient, curve):
    """Parallel-transport an orthonormal frame along a moving ambient curve."""
    y0 = np.asarray(curve.gamma(curve.grid[0]), dtype=float)
    E = np.linalg.inv(np.linalg.cholesky(ambient.metric(y0))).T  # orthonormal wrt G0

    def components(t, E):
        g = ambient.metric(np.asarray(curve.gamma(t), dtype=float))
        return E.T @ g @ np.asarray(curve.gamma_dot(t), dtype=float)

    def rhs(t, E):
        y = np.asarray(curve.gamma(t), dtype=float)
        gd = np.asarray(curve.gamma_dot(t), dtype=float)
        return -np.einsum("kij,i,jc->kc", ambient.christoffel(y), gd, E)

    return _transport(curve, E, rhs, components)


def _transport_frames_embedded(model, curve):
    """Frame transport for moving curves on the sphere / hyperboloid embedding."""
    d = model.dim
    if model.kind == "sphere":
        r2 = model.radius ** 2

        def mink(a, b):
            return float(a @ b)

        def rhs(t, E):
            gd = np.asarray(curve.gamma_dot(t), dtype=float)
            p = np.asarray(curve.gamma(t), dtype=float)
            return -np.outer(p, gd @ E) / r2
    else:
        s2 = model.curvature_scale ** 2
        eta = np.ones(d + 1)
        eta[0] = -1.0

        def mink(a, b):
            return float(np.sum(eta * a * b))

        def rhs(t, E):
            gd = np.asarray(curve.gamma_dot(t), dtype=float)
            p = np.asarray(curve.gamma(t), dtype=float)
            return np.outer(p, (eta * gd) @ E) / s2

    p0 = np.asarray(curve.gamma(curve.grid[0]), dtype=float)
    gd0 = np.asarray(curve.gamma_dot(curve.grid[0]), dtype=float)
    # orthonormal tangent frame at the start: Gram-Schmidt on tangent candidates
    cand = []
    if np.linalg.norm(gd0) > 1e-12:
        cand.append(gd0)
    for i in range(d + 1):
        e = np.zeros(d + 1)
        e[i] = 1.0
        tang = e - p0 * (mink(e, p0) / mink(p0, p0))
        cand.append(tang)
    E = []
    for v in cand:
        w = v.copy()
        for u in E:
            w = w - u * mink(w, u)
        n = mink(w, w)
        if n > 1e-10:
            E.append(w / math.sqrt(n))
        if len(E) == d:
            break
    if len(E) < d:
        raise ConstructionError("failed to build a frame along the curve")

    def components(t, E):
        gd = np.asarray(curve.gamma_dot(t), dtype=float)
        return np.array([mink(gd, E[:, i]) for i in range(d)])

    return _transport(curve, np.array(E).T, rhs, components)


# ---------------------------------------------------------------------------
# the charts
# ---------------------------------------------------------------------------

class MetricChart:
    """Fermi-coordinate chart: metric, its inverse and square root, drifts.

    Immutable after construction; all evaluators are pure and safe to call
    from multiple workers.  Points are arrays of shape (..., d).  Subclasses
    supply ``metric`` and ``curvature_at``.  ``at`` bundles the evaluators
    per point for a stepper; the one here derives them from ``metric`` alone
    (matrix inverse, determinant, eigendecomposition, finite differences),
    and a subclass may replace it.  ``sigma``, ``sigma_apply``, ``coriolis``
    and ``bessel_drift`` read ``self.at(t, x)``.
    """

    is_radial = False

    def __init__(self, model, curve, tube_radius, vframe):
        self.model = model
        self.curve = curve
        self.tube_radius = float(tube_radius)
        self.d = model.dim
        self._vframe = vframe

    def velocity_frame(self, t):
        """Frame components of gamma_dot(t)."""
        return np.asarray(self._vframe(t), dtype=float)

    # -- supplied by subclasses -----------------------------------------------

    def metric(self, t, x):
        """Metric components g_ij(t, x)."""
        raise NotImplementedError

    def curvature_at(self, t):
        """Curvature tensors at the chart origin."""
        raise NotImplementedError

    # -- metric family -------------------------------------------------------

    def metric_inv(self, t, x):
        """Inverse metric (the diffusion coefficient) g^ij(t, x)."""
        return np.linalg.inv(self.metric(t, x))

    def sqrt_det(self, t, x):
        """sqrt(det g(t, x))."""
        return _sqrt_det(self.metric(t, x))

    def at(self, t, x, rho=None):
        """Evaluation at (t, x) for one step: ``sigma``, ``sigma_apply(v)``,
        ``coriolis()``, ``bessel_drift()`` and ``G()``, sharing what they
        have in common.  ``rho``, when given, is |x| as ``sqrt(_rowdot(x, x))``
        gives it.  This one is the metric-only route: one metric
        evaluation per point, at x and at each point of the Coriolis stencil."""
        return _NumericPoint(self, t, x, rho)

    def sigma(self, t, x):
        """Symmetric positive square root of the inverse metric."""
        return self.at(t, x).sigma

    def sigma_apply(self, t, x, v):
        """sigma(t,x) @ v."""
        return self.at(t, x).sigma_apply(v)

    def sigma_diag(self, t, x):
        """Diagonal entries of sigma (used by the diagonal Milstein scheme)."""
        return np.diagonal(self.sigma(t, x), axis1=-2, axis2=-1)

    # -- drifts ---------------------------------------------------------------

    def coriolis(self, t, x):
        """Coriolis drift a(t,x); vanishes on the curve."""
        return self.at(t, x).coriolis()

    def bessel_drift(self, t, x):
        """Besselization drift c(t,x), parallel to x by construction."""
        return self.at(t, x).bessel_drift()


def _sqrt_det(g):
    """sqrt(det g) of a batch of metric matrices."""
    det = np.linalg.det(g)
    if np.any(det <= 0):
        raise NumericError("non-positive metric determinant")
    return np.sqrt(det)


def _spd_sqrt(mats, t, x):
    """Symmetric PSD square root by eigendecomposition, eigenvalues clamped."""
    vals, vecs = np.linalg.eigh(mats)
    if np.any(vals < -1e-10):
        bad = np.unravel_index(int(np.argmin(vals)), vals.shape)
        raise NumericError(f"inverse metric not SPD at t={t}, point index {bad}")
    vals = np.clip(vals, 1e-12, None)
    root = np.sqrt(vals)
    return np.einsum("...ik,...k,...jk->...ij", vecs, root, vecs)


class _Point:
    """A chart evaluated at a batch of points x of shape (..., d), for one
    step: rho = |x| at once, unless the caller knows it (the same
    sqrt(_rowdot(x, x)), taken at its exit check), and u = x/rho (0 at the
    origin) when first used."""

    def __init__(self, x, rho=None):
        self.x = np.asarray(x, dtype=float)
        self.rho = np.sqrt(_rowdot(self.x, self.x)) if rho is None else rho

    @cached_property
    def u(self):
        # x / inf = 0 on the rows at the origin
        return _rowscale(self.x, np.where(self.rho == 0, np.inf, self.rho), np.divide)


class _MatrixPoint(_Point):
    """A point that holds the matrix sigma: sigma v by einsum,
    c = (d - tr g^-1) x / (2 rho^2) and G = tr((sigma - I)^2) / rho^4.
    Subclasses supply ``sigma``, ``_trace_g_inv`` and ``coriolis``."""

    def __init__(self, chart, x, rho=None):
        super().__init__(x, rho)
        self._chart = chart
        self.d = chart.d

    def sigma_apply(self, v):
        return np.einsum("...ij,...j->...i", self.sigma, v)

    def bessel_drift(self):
        safe = np.where(self.rho > 1e-12, self.rho, 1.0)
        amp = np.where(self.rho > 1e-12, (self.d - self._trace_g_inv) / (2 * safe ** 2), 0.0)
        return _rowscale(self.x, amp)

    def G(self):
        dev = self.sigma - np.eye(self.d)
        return np.einsum("...ij,...ji->...", dev, dev) / self.rho ** 4


class _NumericPoint(_MatrixPoint):
    """``MetricChart.at``: one metric evaluation per point.  The metric at x
    gives g^-1 once, which sigma (its square root) and the Besselization
    drift share; each point of the Coriolis stencil (4th-order central
    differences, step 1e-3 of the tube radius) gives sqrt(det g) g^-1 from
    its own single metric, and a^i = (1/2) sum_j d_j(sqrt(g) g^ij) / sqrt(g)."""

    def __init__(self, chart, t, x, rho=None):
        super().__init__(chart, x, rho)
        self._t = t

    @cached_property
    def _g(self):
        return self._chart.metric(self._t, self.x)

    @cached_property
    def _g_inv(self):
        return np.linalg.inv(self._g)

    @cached_property
    def sigma(self):
        return _spd_sqrt(self._g_inv, self._t, self.x)

    @property
    def _trace_g_inv(self):
        return np.trace(self._g_inv, axis1=-2, axis2=-1)

    def coriolis(self):
        chart, t = self._chart, self._t
        sq = _sqrt_det(self._g)

        def flux(p):
            g = chart.metric(t, p)
            return _sqrt_det(g)[..., None, None] * np.linalg.inv(g)

        div = np.trace(_jacobian(flux, self.x, 1e-3 * chart.tube_radius), axis1=-2, axis2=-1)
        return 0.5 * div / sq[..., None]


class _GridPoint(_MatrixPoint):
    """``PrecomputedChart.at``: sigma and a from one lookup of their joint
    table; tr g^-1 = sum_ij sigma_ij^2 from that same sigma."""

    @cached_property
    def _row(self):
        return self._chart._step_table(self.x)

    @cached_property
    def sigma(self):
        return _unpack_sym(self._row[..., :-self.d], self.d)

    @property
    def _trace_g_inv(self):
        return np.einsum("...ij,...ij->...", self.sigma, self.sigma)

    def coriolis(self):
        return self._row[..., -self.d:]


class _RadialPoint(_Point):
    """``RadialChart.at``: rho, u and 1/tl(rho) once, and the closed forms
    sigma = u u^T + (1/tl)(I - u u^T), sigma v = v/tl + (1 - 1/tl)(u.v) u,
    a = (A/rho) x, c = (C/rho) x and
    G = tr((sigma - I)^2) / rho^4 = (d - 1)(1/tl - 1)^2 / rho^4 = (d - 1)(K q)^2."""

    def __init__(self, scalars, x, rho=None):
        super().__init__(x, rho)
        self._scalars = scalars

    @cached_property
    def rho2(self):
        return self.rho * self.rho

    @cached_property
    def tl(self):
        return self._scalars.tl(self.rho2)

    @cached_property
    def ti(self):
        return 1.0 / self.tl

    def matrix(self, m):
        """u u^T + m (I - u u^T): g for m = tl^2, g^-1 for tl^-2, sigma for 1/tl."""
        uu = self.u[..., :, None] * self.u[..., None, :]
        return uu + m[..., None, None] * (np.eye(self._scalars.d) - uu)

    @cached_property
    def sigma(self):
        return self.matrix(self.ti)

    def sigma_apply(self, v):
        v = np.asarray(v, dtype=float)
        out = _rowscale(v, self.ti)
        out += _rowscale(self.u, (1.0 - self.ti) * _rowdot(self.u, v))
        return out

    def coriolis(self):
        return _rowscale(self.x, self._scalars.coriolis_over_rho(self.rho2))

    def bessel_drift(self):
        return _rowscale(self.x, self._scalars.bessel_over_rho(self.rho2))

    def G(self):
        return (self._scalars.d - 1) * (self._scalars.K * self._scalars.q(self.rho2)) ** 2


class RadialChart(MetricChart):
    """Closed-form chart of a constant-curvature model.

    The chart metric is the same at every time, because the model spaces are
    homogeneous: g = u u^T + tl(rho)^2 (I - u u^T), and a and c are radial.
    ``at`` computes rho, u and 1/tl once and holds each radial formula.
    """

    is_radial = True

    def __init__(self, model, curve, tube_radius, vframe):
        super().__init__(model, curve, tube_radius, vframe)
        self._scalars = _RadialScalars(model.curv, model.dim)

    def at(self, t, x, rho=None):
        return _RadialPoint(self._scalars, x, rho)

    def metric(self, t, x):
        p = self.at(t, x)
        return p.matrix(p.tl ** 2)

    def metric_inv(self, t, x):
        p = self.at(t, x)
        return p.matrix(p.tl ** -2.0)

    def sigma_diag(self, t, x):
        p = self.at(t, x)
        return p.ti[..., None] + (1.0 - p.ti)[..., None] * p.u * p.u

    def curvature_at(self, t):
        return _constant_curvature_data(self.model.curv, self.d, t)


# RK4 step bound, in arc length, of a geodesic shot to X: its unit-time
# step is min(1/12, _SHOT_MAX_STEP / |X|), so at least 12 steps
_SHOT_MAX_STEP = 0.02


class ShotChart(MetricChart):
    """Numerical Fermi chart over an ambient metric.

    Geodesics are integrated with a classical RK4 whose rate comes from the
    ambient's ``geodesic_rates``: acc = -Gamma^k_ij v^i v^j (-B/(2w) on a
    warped model) and, for the Jacobi equation, J'' = D acc(y, v) (J, J'),
    from J = 0 and J' = the frame.  So J(1) is the Jacobian of the
    exponential map in frame coordinates and the chart metric is its
    pull-back J^T G(y) J: one geodesic per point, no difference stencil
    (Gray, *Tubes*, ch. 2).  Each point X takes its own
    steps: unit-time steps of min(1/12, _SHOT_MAX_STEP / |X|) laid from the
    start, at most 0.02 of arc length and at least 12 of them, and one
    shorter last step that ends at t = 1.  So a point's metric does not
    depend on the batch it is evaluated in, and the end point and J are
    continuous in X, with no jump where the step count changes.
    ``centers`` maps t to the ambient point gamma(t) and ``frames`` to the
    (d, d) matrix whose columns are the transported frame vectors there.
    On a constant curve both are the same at every t, so ``curvature_at``
    computes the curvature once, on its first call, and hands every t
    that value (read-only) with its own ``at``; a moving curve's is
    computed at each t.
    """

    def __init__(self, model, curve, tube_radius, vframe, ambient, centers, frames):
        super().__init__(model, curve, tube_radius, vframe)
        self.ambient = ambient
        self.centers = centers
        self.frames = frames

    def _shoot(self, t, X):
        """exp_{gamma(t)}(X^i e_i(t)) for a batch X of shape (m, d), and its
        Jacobian J[m, a, i] = d end^a / d X^i.  The RK4 state holds the
        points in order of falling step count along its last axis."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m, d = X.shape
        length = np.sqrt(_rowdot(X, X))
        h = np.minimum(1 / 12, _SHOT_MAX_STEP / np.maximum(length, _SHOT_MAX_STEP))
        n = np.ceil(1 / h).astype(int)
        order = np.argsort(-n, kind="stable")
        E = self.frames(t)
        y = np.repeat(np.asarray(self.centers(t), dtype=float)[:, None], m, axis=1)
        v = _leaddot(E.T[:, :, None], X[order].T[:, None, :])  # v^a = E^a_i X^i
        Jd = np.repeat(E[:, :, None], m, axis=2)
        rates = self.ambient.geodesic_rates

        def rate(_, s):
            y, v, J, Jd = s
            acc, jvp = rates(y, v, J, Jd)
            return v, acc, Jd, jvp

        y, _, J, _ = _rk4(rate, 0.0, [y, v, np.zeros_like(Jd), Jd], h[order], n[order], 1.0)
        end, jac = np.empty((m, d)), np.empty((m, d, d))
        end[order], jac[order] = y.T, np.moveaxis(J, -1, 0)
        return end, jac

    def metric(self, t, x):
        X = np.asarray(x, dtype=float)
        flat = np.atleast_2d(X.reshape(-1, X.shape[-1]))
        d = flat.shape[1]
        end, J = self._shoot(t, flat)
        g = np.einsum("mai,mab,mbj->mij", J, self.ambient.metric(end), J)
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
        return g.reshape(X.shape[:-1] + (d, d)) if X.ndim > 1 else g[0]

    def curvature_at(self, t):
        if self.curve.kind != "constant":
            return self._curvature(t)
        return replace(self._constant_curvature, at=(t, np.zeros(self.d)))

    @cached_property
    def _constant_curvature(self):
        # shared by every call, so its arrays are read-only
        curv = self._curvature(0.0)
        curv.riemann.flags.writeable = curv.ricci.flags.writeable = False
        return curv

    def _curvature(self, t):
        """The ambient curvature at gamma(t) in the frame there."""
        low = ambient_curvature(self.ambient, np.asarray(self.centers(t), dtype=float))
        E = self.frames(t)
        low = np.einsum("abcd,ai,bj,ck,dl->ijkl", low, E, E, E, E)
        ricci = np.einsum("ijil->jl", low)
        return CurvatureData(riemann=low, ricci=ricci, scalar=float(np.trace(ricci)),
                             at=(t, np.zeros(self.d)))


def _unpack_sym(p, d):
    """Symmetric (d, d) matrices from their packed upper triangles (..., k)."""
    i, j = np.triu_indices(d)
    out = np.empty(p.shape[:-1] + (d, d))
    out[..., i, j] = p
    out[..., j, i] = p
    return out


def _node_derivative(f, axis, h):
    """4th-order first derivative of node values along ``axis`` (spacing h):
    central inside, one-sided on the two outer layers of nodes at each end."""
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[2:-2] = f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]
    out[0] = -25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]
    out[1] = -3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]
    out[-2] = 3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]
    out[-1] = 25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]
    return np.moveaxis(out / (12 * h), 0, axis)


class _GridTable:
    """Cubic B-spline interpolant of a k-component field on the cube
    [-bound, bound]^d, from its ``values`` of shape (n,) * d + (k,) on ``n``
    equally spaced nodes per axis: the interpolant of ``scipy.ndimage`` in
    mode "mirror" (Unser 1999, *IEEE SPM* 16(6)), with coefficients from the
    mirror-ended collocation system [1 4 1]/6 along each axis.  A call maps
    points (..., d) to (..., k) and raises ``ChartDomainError`` outside the
    cube.  It gathers the 4^d neighbours of 256 points at a time (1.2 MB
    for a 3-d table of 9 components, against 9.4 MB for 2,048 points, at
    the same speed) for all components at once, and contracts them with
    the weights point by point, so a point's value does not depend on its
    batch or on the block size.
    """

    _BLOCK = 256

    def __init__(self, values, bound):
        n, d = values.shape[0], values.ndim - 1
        collocation = (4 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 6
        collocation[0, 1] = collocation[-1, -2] = 2 / 6
        solve = np.linalg.inv(collocation)
        for axis in range(d):
            values = np.moveaxis(np.tensordot(solve, values, axes=(1, axis)), 0, axis)
        padded = np.pad(values, [(1, 2)] * d + [(0, 0)], mode="reflect")
        self.bound = float(bound)
        self.scale = (n - 1) / (2 * self.bound)
        self._flat = padded.reshape(-1, values.shape[-1])
        self._strides = (n + 3) ** np.arange(d - 1, -1, -1)
        self._offsets = (np.indices((4,) * d).reshape(d, -1).T @ self._strides)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all(np.abs(x) <= self.bound):
            raise ChartDomainError(f"grid chart evaluated outside its cube |x_i| <= {self.bound}")
        u = ((x + self.bound) * self.scale).reshape(-1, x.shape[-1])
        out = np.empty((len(u), self._flat.shape[1]))
        for s in range(0, len(u), self._BLOCK):
            out[s:s + self._BLOCK] = self._lookup(u[s:s + self._BLOCK])
        return out.reshape(x.shape[:-1] + out.shape[1:])

    def _lookup(self, u):
        cell = np.floor(u)
        t = u - cell
        w = np.stack([(1 - t) ** 3, (3 * t - 6) * t * t + 4,
                      ((3 - 3 * t) * t + 3) * t + 1, t ** 3], axis=-1) / 6
        weights = w[:, 0]
        for axis in range(1, u.shape[1]):
            weights = (weights[:, :, None] * w[:, axis, None, :]).reshape(len(u), -1)
        base = cell.astype(np.intp) @ self._strides
        vals = np.take(self._flat, base[:, None] + self._offsets, axis=0)
        return np.matmul(weights[:, None, :], vals)[:, 0]


class PrecomputedChart(MetricChart):
    """Grid-sampled stand-in for a (time-independent) shot chart.

    Samples the base chart's metric once on ``n_nodes`` nodes per axis of the
    cube [-tube_radius, tube_radius]^d -- from a ``ShotChart``, one geodesic
    per node, whose variational equation gives the Jacobian of the exponential
    map there, with no difference stencil -- and tabulates, as cubic B-splines
    of those node values (numpy only, no scipy): g (for ``metric``,
    ``metric_inv`` and ``sqrt_det``), and in one table sigma = (g^-1)^(1/2)
    and the Coriolis drift a^i = (1/2) sum_j d_j(sqrt(g) g^ij) / sqrt(g),
    whose derivatives are 4th-order differences of the node values (central
    inside, one-sided on the two outer layers of nodes), not of the spline,
    whose mirror boundary would bend them near the cube faces.  The
    Besselization drift comes from the looked-up sigma, as tr g^-1 =
    sum_ij sigma_ij^2; a table of c would interpolate poorly, since c is a
    cone at the origin on non-Einstein models.  A step makes one lookup, for
    sigma and a together, and no inverse, determinant or eigendecomposition.
    Points outside the cube raise ``ChartDomainError``.  Interpolation error
    is a few parts in 1e6 at the default resolution.  Use an odd ``n_nodes``:
    an even grid has no node at the origin, where the exact g = I, and
    c = (d - tr g^-1) x / (2 rho^2) divides the interpolation error of
    tr g^-1 by rho^2, so its error grows like 1/|x| towards the origin (on a
    warped 3-d chart, 1.7e-3 at |x| = 1e-4 with 16 nodes against 1.5e-5
    with 15).  ``curvature_at`` is the base chart's, so a constant curve's
    curvature is computed once for every t.
    """

    def __init__(self, chart, n_nodes=25):
        if chart.is_radial:
            raise ConstructionError("closed-form charts need no tabulation")
        if chart.curve.kind != "constant":
            raise ConstructionError("only time-independent charts can be tabulated")
        if n_nodes < 5:
            raise ConstructionError(f"a grid chart needs at least 5 nodes per axis "
                                    f"(its difference stencil), got {n_nodes}")
        super().__init__(chart.model, chart.curve, chart.tube_radius, chart._vframe)
        self._base = chart
        d, bound = self.d, chart.tube_radius
        axes = (np.linspace(-bound, bound, n_nodes),) * d
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        g = chart.metric(0.0, mesh.reshape(-1, d)).reshape(mesh.shape[:-1] + (d, d))
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite metric at a grid node")
        sq = _sqrt_det(g)
        g_inv = np.linalg.inv(g)
        sigma = _spd_sqrt(g_inv, 0.0, mesh)
        flux = sq[..., None, None] * g_inv
        h = axes[0][1] - axes[0][0]
        div = sum(_node_derivative(flux[..., :, j], j, h) for j in range(d))
        upper = (..., *np.triu_indices(d))  # the entries i <= j, packed
        self._g = _GridTable(g[upper], bound)
        self._step_table = _GridTable(
            np.concatenate([sigma[upper], 0.5 * div / sq[..., None]], axis=-1), bound)

    def at(self, t, x, rho=None):
        return _GridPoint(self, x, rho)

    def metric(self, t, x):
        return _unpack_sym(self._g(x), self.d)

    def curvature_at(self, t):
        return self._base.curvature_at(t)


# ---------------------------------------------------------------------------
# chart construction
# ---------------------------------------------------------------------------

def fermi_chart(model, curve=None, tube_radius=0.5, method=None):
    """Build the Fermi chart of ``model`` along ``curve``.

    Constant-curvature models get a ``RadialChart``, the closed-form radial
    metric (which is the same at every time because the spaces are
    homogeneous); only the frame components of the velocity depend on the
    curve.  Warped models -- or any model when method="shoot" -- get a
    ``ShotChart``: geodesic shooting with an RK4 integrator and a
    parallel-transported frame cached on the curve grid.
    """
    if curve is None:
        curve = constant_curve(T=1.0)
    if tube_radius <= 0:
        raise ChartDomainError("tube radius must be positive")
    if model.kind == "sphere":
        inj = math.pi * model.radius / 2
        if tube_radius >= inj:
            raise ChartDomainError(
                f"tube radius {tube_radius} exceeds sphere chart bound {inj:.6g}")

    method = method or ("shoot" if model.kind == "warped" else "radial")
    if method not in ("radial", "shoot"):
        raise ConstructionError(f"unknown chart method {method!r}; have 'radial', 'shoot'")

    if method == "radial":
        if model.kind == "warped":
            raise ConstructionError("warped models have no closed-form chart")
        return RadialChart(model, curve, tube_radius, _resolve_vframe(model, curve))

    # shot chart over an ambient metric
    if model.kind == "warped":
        prof = _resolve_profile(model.profile)
        beta = np.arange(1, model.dim + 1) / model.dim
        amb = DiagonalAmbient(model.dim, beta, prof)
    elif model.kind in ("sphere", "hyperbolic"):
        # shooting oracle: ambient = the closed-form chart metric at a fixed
        # reference point, so the shot chart must reproduce the closed form;
        # its d-dimensional ambient cannot carry an embedded moving curve
        if curve.kind != "constant":
            raise ConstructionError(f"the shooting oracle needs a constant curve, "
                                    f"not {curve.kind!r}")
        closed = RadialChart(model, curve, tube_radius, None)
        amb = CallableAmbient(model.dim, lambda y: closed.metric(0.0, y))
    else:
        raise ConstructionError("euclidean charts are always closed form")

    if curve.kind == "constant":
        pt = curve.params.get("point")
        y0 = np.zeros(model.dim) if pt is None else np.asarray(pt, dtype=float)
        E0 = np.linalg.inv(np.linalg.cholesky(amb.metric(y0))).T
        frames = lambda t: E0
        centers = lambda t: y0
        vframe = lambda t: np.zeros(model.dim)
    else:
        if curve.gamma is None or curve.gamma_dot is None:
            raise ConstructionError("moving shot charts need gamma and gamma_dot")
        _check_curve_speed(curve)
        frames, vframe = _transport_frames_ambient(amb, curve)
        centers = lambda t: np.asarray(curve.gamma(t), dtype=float)
    return ShotChart(model, curve, tube_radius, vframe, amb, centers, frames)


def _check_curve_speed(curve):
    grid = curve.grid
    speeds = np.array([np.linalg.norm(np.asarray(curve.gamma_dot(t), dtype=float))
                       for t in grid])
    if np.any(speeds < 1e-12) and not np.all(speeds < 1e-12):
        raise ConstructionError("curve velocity vanishes at an interior grid time")


def _resolve_vframe(model, curve):
    d = model.dim
    if curve.kind == "constant":
        return lambda t: np.zeros(d)
    if curve.vframe is not None:
        return curve.vframe
    if model.kind == "euclidean":
        return lambda t: np.asarray(curve.gamma_dot(t), dtype=float)
    if curve.kind == "embedded":
        _check_curve_speed(curve)
        _, vfr = _transport_frames_embedded(model, curve)
        return vfr
    raise ConstructionError(
        f"cannot derive frame velocity for curve kind {curve.kind!r} on {model.kind}")


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def curvature_from_chart_fd(chart, t=0.0, h=None):
    """Curvature at the origin from 4th-order FD Hessians of the chart metric.

    Uses R_ijkl = (g_il,jk + g_jk,il - g_ik,jl - g_jl,ik)/2, valid at the
    origin of a Fermi chart where the Christoffel symbols vanish.
    """
    d = chart.d
    h = h or 1e-3 * chart.tube_radius

    def dmetric(x):  # [..., i, j, l] = d_l g_ij(t, x)
        return _jacobian(lambda y: chart.metric(t, y), x, h)

    # Hessian H[k, l, i, j] = d_k d_l g_ij(0), a difference of differences
    H = np.transpose(_jacobian(dmetric, np.zeros(d), h), (3, 2, 0, 1))
    if not np.all(np.isfinite(H)):
        raise NumericError("non-finite metric Hessian in curvature estimate")
    riem = 0.5 * (np.einsum("jkil->ijkl", H) + np.einsum("iljk->ijkl", H)
                  - np.einsum("jlik->ijkl", H) - np.einsum("ikjl->ijkl", H))
    ricci = np.einsum("ijil->jl", riem)
    return CurvatureData(riemann=riem, ricci=ricci, scalar=float(np.trace(ricci)),
                         at=(t, np.zeros(d)))


def divergence_fd(fn, x, h):
    """Divergence sum_j d_j fn_j of a vector field at points x of shape
    (..., d): the trace of its 4th-order central-difference Jacobian, step h."""
    return np.trace(_jacobian(fn, x, h), axis1=-2, axis2=-1)


_EXPANSION_QUANTITIES = ("sigma_minus_expansion", "div_a_minus_limit", "div_c_minus_limit")


def expansion_order_check(chart, quantity, radii, t=0.0, n_dirs=24, seed=0):
    """Fit the log-log decay slope of an expansion residual over |x|.

    quantity:
      sigma_minus_expansion -- max |sigma_ij - delta_ij - R_ikjl x^k x^l / 6|
      div_a_minus_limit     -- |div a + R/3|
      div_c_minus_limit     -- |div c + (d/6) Ric(u,u)|

    Residuals are maximized over ``n_dirs`` random directions at each radius.
    Returns the least-squares slope, or the string "exact" when every
    residual sits below 1e-13 (pure roundoff).
    """
    if quantity not in _EXPANSION_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    radii = np.asarray(radii, dtype=float)
    if np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing")
    if np.any(radii >= chart.tube_radius):
        raise ChartDomainError("radii must stay below the tube radius")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_dirs, chart.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    curv = chart.curvature_at(t)
    h = 1e-3 * chart.tube_radius

    res = np.zeros_like(radii)
    for a, r in enumerate(radii):
        X = r * dirs
        if quantity == "sigma_minus_expansion":
            sig = chart.sigma(t, X)
            quad = np.einsum("ikjl,mk,ml->mij", curv.riemann, X, X) / 6.0
            dev = sig - np.eye(chart.d) - quad
            res[a] = np.max(np.abs(dev))
        elif quantity == "div_a_minus_limit":
            div = divergence_fd(lambda p: chart.coriolis(t, p), X, h)
            res[a] = np.max(np.abs(div + curv.scalar / 3.0))
        else:
            div = divergence_fd(lambda p: chart.bessel_drift(t, p), X, h)
            lead = (chart.d / 6.0) * np.einsum("ij,mi,mj->m", curv.ricci, dirs, dirs)
            res[a] = np.max(np.abs(div + lead))
    if np.all(res < 1e-13):
        return "exact"
    slope = np.polyfit(np.log(radii), np.log(np.maximum(res, 1e-300)), 1)[0]
    return float(slope)
