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
rule.  Their base ``MetricChart`` holds the domain check, the frame velocity
and numerical evaluators derived from ``metric`` alone (inverse, determinant,
eigen square root, finite-difference Coriolis drift, trace-formula
Besselization drift); each subclass supplies ``metric`` and ``curvature_at``:

* ``RadialChart`` -- closed forms for every evaluator (constant curvature).
* ``ShotChart`` -- the metric by geodesic shooting in an ambient metric, the
  curvature from its Christoffel symbols (warped models, or method="shoot").
* ``PrecomputedChart`` -- the metric of a time-independent shot chart,
  sampled on a cube grid and interpolated by cubic B-splines.

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

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

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
    "curvature_at",
    "curvature_from_chart_fd",
    "coriolis_drift",
    "besselization_drift",
    "sigma_sqrt",
    "expansion_order_check",
    "divergence_fd",
]


# ---------------------------------------------------------------------------
# profiles for the warped-diagonal model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Smooth even radial profile p(rho) with optional analytic derivatives.

    Evenness at 0 (p'(0) = 0) keeps the diagonal metric smooth across the
    origin of the model's coordinates.  Derivatives fall back to high-order
    finite differences when not supplied.
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
        h = 1e-4
        return (self.f(rho - 2 * h) - 8 * self.f(rho - h)
                + 8 * self.f(rho + h) - self.f(rho + 2 * h)) / (12 * h)

    def deriv2(self, rho):
        if self.d2f is not None:
            return self.d2f(rho)
        h = 1e-3
        return (-self.f(rho - 2 * h) + 16 * self.f(rho - h) - 30 * self.f(rho)
                + 16 * self.f(rho + h) - self.f(rho + 2 * h)) / (12 * h * h)


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

    def describe(self):
        out = {"kind": self.kind, "dim": self.dim}
        if self.kind == "sphere":
            out["radius"] = self.radius
        elif self.kind == "hyperbolic":
            out["curvature_scale"] = self.curvature_scale
        elif self.kind == "warped":
            out["profile"] = _resolve_profile(self.profile).name
        return out


def euclidean(d):
    return ManifoldModel("euclidean", d)


def sphere(d, radius=1.0):
    return ManifoldModel("sphere", d, radius=radius)


def hyperbolic(d, curvature_scale=1.0):
    return ManifoldModel("hyperbolic", d, curvature_scale=curvature_scale)


def warped_diagonal(d, profile="bump"):
    return ManifoldModel("warped", d, profile=_resolve_profile(profile))


# ---------------------------------------------------------------------------
# stable radial scalars.  z = sqrt(|K|) rho; series are used below Z_CUT and
# keep terms through z^9, so truncation stays below ~1e-14 at the switch.
# ---------------------------------------------------------------------------

_Z_CUT = 0.15


def _by_branch(small, z, series, direct):
    """series(z) where ``small`` holds and direct(z) elsewhere.

    Each branch is evaluated only on its own lanes.  Both functions map an
    array to an array of the same trailing shape (leading axes may stack
    several results).
    """
    if small.all():
        return series(z)
    if not small.any():
        return direct(z)
    lo = series(z[small])
    out = np.empty(lo.shape[:-1] + z.shape)
    out[..., small] = lo
    out[..., ~small] = direct(z[~small])
    return out


def _cot_minus_inv(z):
    """cot(z) - 1/z."""
    z = np.asarray(z, dtype=float)
    return _by_branch(
        z < _Z_CUT, z,
        lambda z: -(z / 3 + z ** 3 / 45 + 2 * z ** 5 / 945 + z ** 7 / 4725 + 2 * z ** 9 / 93555),
        lambda z: np.cos(z) / np.sin(z) - 1.0 / z)


def _coth_minus_inv(z):
    z = np.asarray(z, dtype=float)
    return _by_branch(
        z < _Z_CUT, z,
        lambda z: z / 3 - z ** 3 / 45 + 2 * z ** 5 / 945 - z ** 7 / 4725 + 2 * z ** 9 / 93555,
        lambda z: np.cosh(z) / np.sinh(z) - 1.0 / z)


def _one_minus_zsin2_over_z(z):
    """(1 - (z/sin z)^2) / z."""
    z = np.asarray(z, dtype=float)
    return _by_branch(
        z < _Z_CUT, z,
        lambda z: -(z / 3 + z ** 3 / 15 + 2 * z ** 5 / 189 + z ** 7 / 675 + 2 * z ** 9 / 10395),
        lambda z: (1.0 - (z / np.sin(z)) ** 2) / z)


def _one_minus_zsinh2_over_z(z):
    z = np.asarray(z, dtype=float)
    return _by_branch(
        z < _Z_CUT, z,
        lambda z: z / 3 - z ** 3 / 15 + 2 * z ** 5 / 189 - z ** 7 / 675 + 2 * z ** 9 / 10395,
        lambda z: (1.0 - (z / np.sinh(z)) ** 2) / z)


def _sinc(z):
    return np.sinc(np.asarray(z, dtype=float) / np.pi)


def _sinhc(z):
    z = np.asarray(z, dtype=float)
    return _by_branch(z < 1e-3, z,
                      lambda z: 1.0 + z * z / 6 + z ** 4 / 120 + z ** 6 / 5040,
                      lambda z: np.sinh(z) / z)


# Curl scalars of the 1-form g b (see ``om.alpha_kernel``) as functions of
# w = K rho^2.  With F(w) = tl^2 = sum_{n>=1} (-1)^(n+1) 2^(2n-1) w^(n-1)/(2n)!
# and G(w) = (F(w) - 1)/w = sum_m a_m w^m:
#     phi = F = 1 + w G,    psi = -K G,    P = 2 K F'(w) - psi = K sum_m (2m+3) a_m w^m.
# The series is used below W_CUT, where it is truncated after w^7 (error
# below 1e-16); above it the direct forms lose at most ~6 eps / |w|.
_W_CUT = 0.25
_G_SERIES = tuple((-1) ** (m + 1) * 2.0 ** (2 * m + 3) / math.factorial(2 * m + 4)
                  for m in range(8))
_P_SERIES = tuple((2 * m + 3) * a for m, a in enumerate(_G_SERIES))


class _RadialScalars:
    """Scalar chart profiles for a constant-curvature model."""

    def __init__(self, K, d):
        self.K = float(K)
        self.d = int(d)
        self.k = math.sqrt(abs(K)) if K != 0.0 else 0.0

    def tl(self, rho):
        """Transverse eigenvalue of sigma^-1, so the lower metric has tl^2."""
        rho = np.asarray(rho, dtype=float)
        if self.K == 0.0:
            return np.ones_like(rho)
        z = self.k * rho
        return _sinc(z) if self.K > 0 else _sinhc(z)

    def _ratio_over_z(self, fn_s, fn_h, limit_s, limit_h, rho):
        rho = np.asarray(rho, dtype=float)
        z = self.k * rho
        if self.K > 0:
            fn, limit = fn_s, limit_s
        else:
            fn, limit = fn_h, limit_h
        zs = np.where(z > 0, z, 1.0)
        return np.where(z > 0, fn(zs) / zs, limit)

    def coriolis_over_rho(self, rho):
        """A(rho)/rho where the Coriolis drift is a = A(rho) x/rho."""
        if self.K == 0.0:
            return np.zeros_like(np.asarray(rho, dtype=float))

        def fs(z):
            return _cot_minus_inv(z) + _one_minus_zsin2_over_z(z)

        def fh(z):
            return _coth_minus_inv(z) + _one_minus_zsinh2_over_z(z)

        val = self._ratio_over_z(fs, fh, -2.0 / 3.0, 2.0 / 3.0, rho)
        return 0.5 * (self.d - 1) * self.k ** 2 * val

    def bessel_over_rho(self, rho):
        """C(rho)/rho where the Besselization drift is c = C(rho) x/rho."""
        if self.K == 0.0:
            return np.zeros_like(np.asarray(rho, dtype=float))
        val = self._ratio_over_z(
            _one_minus_zsin2_over_z, _one_minus_zsinh2_over_z, -1.0 / 3.0, 1.0 / 3.0, rho
        )
        return 0.5 * (self.d - 1) * self.k ** 2 * val

    def curl_scalars(self, rho2):
        """(phi, psi, P) stacked on a leading axis, at squared radius rho2:
        phi = tl^2, psi = (1 - tl^2)/rho^2 and P = phi'(rho)/rho - psi, the
        coefficients of curl(g b)."""
        w = self.K * np.asarray(rho2, dtype=float)
        return _by_branch(np.abs(w) < _W_CUT, w, self._curl_series, self._curl_direct)

    def _curl_series(self, w):
        G = polyval(w, _G_SERIES)
        return np.stack((1.0 + w * G, -self.K * G, self.K * polyval(w, _P_SERIES)))

    def _curl_direct(self, w):
        z2 = np.abs(w)
        z = np.sqrt(z2)
        if self.K > 0:
            s, c = np.sin(z), np.cos(z)
        else:
            s, c = np.sinh(z), np.cosh(z)
        s2 = s * s
        scale = abs(self.K) / (z2 * z2)
        return np.stack((s2 / z2, scale * (z2 - s2), scale * (2.0 * z * s * c - s2 - z2)))


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

    def describe(self):
        return {"kind": self.kind, "T": self.T, "n_grid": self.n_grid,
                **{k: (v.tolist() if isinstance(v, np.ndarray) else v)
                   for k, v in self.params.items() if not callable(v)}}


def constant_curve(T, point=None, n_grid=64):
    """Curve that sits at one point; the chart never moves."""
    pt = None if point is None else np.asarray(point, dtype=float)
    return CurveSpec(
        T=T, n_grid=n_grid, kind="constant", params={"point": pt},
        gamma=(lambda t, p=pt: p) if pt is not None else None,
        gamma_dot=(lambda t, p=pt: np.zeros_like(p)) if pt is not None else None,
        vframe=lambda t: None,  # replaced by the chart with zeros of the right dim
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
    """Diagonal metric g_ii(y) = w_i(|y|) with closed-form Christoffels."""

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

    def metric_inv(self, y):
        g = self.metric(y)
        ginv = np.zeros_like(g)
        idx = np.arange(self.d)
        ginv[..., idx, idx] = 1.0 / g[..., idx, idx]
        return ginv

    def grad_w(self, y):
        """d_j w_k as [..., k, j]."""
        y = np.asarray(y, dtype=float)
        rho = np.linalg.norm(y, axis=-1)
        safe = np.where(rho > 1e-12, rho, 1.0)
        u = y / safe[..., None]
        dw = self._dw(rho)
        return dw[..., :, None] * u[..., None, :]

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
        gradw = dwamp[..., :, None] * u[..., None, :]  # [..., k, j]
        term = (np.einsum("ki,...kjl->...lkij", eye, hess)
                + np.einsum("kj,...kil->...lkij", eye, hess)
                - np.einsum("ij,...ikl->...lkij", eye, hess))
        base = 0.5 * term / w[..., None, :, None, None]
        gamma = self.christoffel(y)
        ratio = gradw / w[..., :, None]  # [..., k, l] = d_l w_k / w_k
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
        y = np.asarray(y, dtype=float)
        h = self.h
        out = np.zeros(y.shape[:-1] + (self.d, self.d, self.d))
        for m in range(self.d):
            e = np.zeros(self.d)
            e[m] = 1.0
            out[..., m, :, :] = (
                self.metric_fn(y - 2 * h * e) - 8 * self.metric_fn(y - h * e)
                + 8 * self.metric_fn(y + h * e) - self.metric_fn(y + 2 * h * e)
            ) / (12 * h)
        return out  # [..., m, i, j] = d_m g_ij

    def christoffel(self, y):
        dg = self._dmetric(y)
        ginv = self.metric_inv(y)
        tmp = (np.einsum("...imj->...mij", dg) + np.einsum("...jmi->...mij", dg)
               - np.einsum("...mij->...mij", dg))
        # tmp[m,i,j] = d_i g_mj + d_j g_mi - d_m g_ij
        return 0.5 * np.einsum("...km,...mij->...kij", ginv, tmp)

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
    """RK4-transport the frame E (columns) with dE/dt = rhs(t, E) over the
    curve grid, four steps per cell.  Returns cubic splines in t of the
    frames and of components(t, E), the frame components of gamma_dot."""
    from scipy.interpolate import CubicSpline

    grid = curve.grid
    n_sub = 4
    frames = [E.copy()]
    vfr = [components(grid[0], E)]
    for k in range(len(grid) - 1):
        t0, t1 = grid[k], grid[k + 1]
        h = (t1 - t0) / n_sub
        for j in range(n_sub):
            t = t0 + j * h
            k1 = rhs(t, E)
            k2 = rhs(t + h / 2, E + h / 2 * k1)
            k3 = rhs(t + h / 2, E + h / 2 * k2)
            k4 = rhs(t + h, E + h * k3)
            E = E + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
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
    supply ``metric`` and ``curvature_at``; the other evaluators here derive
    everything from ``metric`` numerically (matrix inverse, determinant,
    eigendecomposition, finite differences).
    """

    is_radial = False

    def __init__(self, model, curve, tube_radius, vframe):
        self.model = model
        self.curve = curve
        self.tube_radius = float(tube_radius)
        self.d = model.dim
        self._vframe = vframe

    # -- basic structure ----------------------------------------------------

    def check_domain(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        if np.any(r > self.tube_radius * (1 + 1e-12)):
            raise ChartDomainError(
                f"point with |x| = {float(np.max(r)):.6g} outside tube radius "
                f"{self.tube_radius:.6g}")

    def velocity_frame(self, t):
        """Frame components of gamma_dot(t)."""
        v = self._vframe(t)
        if v is None:
            return np.zeros(self.d)
        return np.asarray(v, dtype=float)

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
        det = np.linalg.det(self.metric(t, x))
        if np.any(det <= 0):
            raise NumericError("non-positive metric determinant")
        return np.sqrt(det)

    def sigma(self, t, x):
        """Symmetric positive square root of the inverse metric."""
        return _spd_sqrt(self.metric_inv(t, x), t, x)

    def sigma_apply(self, t, x, v):
        """sigma(t,x) @ v."""
        return np.einsum("...ij,...j->...i", self.sigma(t, x), v)

    def sigma_diag(self, t, x):
        """Diagonal entries of sigma (used by the diagonal Milstein scheme)."""
        return np.diagonal(self.sigma(t, x), axis1=-2, axis2=-1)

    # -- drifts ---------------------------------------------------------------

    def coriolis(self, t, x):
        """Coriolis drift a(t,x); vanishes on the curve."""
        return self._coriolis_fd(t, np.asarray(x, dtype=float))

    def _coriolis_fd(self, t, x, h=None):
        h = h or 1e-3 * self.tube_radius
        d = self.d
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        sq = self.sqrt_det(t, x)
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0

            def f(p):
                return self.sqrt_det(t, p)[..., None, None] * self.metric_inv(t, p)

            der = (f(x - 2 * h * e) - 8 * f(x - h * e)
                   + 8 * f(x + h * e) - f(x + 2 * h * e)) / (12 * h)
            out += der[..., :, j]
        return 0.5 * out / sq[..., None]

    def bessel_drift(self, t, x):
        """Besselization drift c(t,x), parallel to x by construction."""
        x = np.asarray(x, dtype=float)
        rho = np.linalg.norm(x, axis=-1)
        safe = np.where(rho > 1e-12, rho, 1.0)
        tr = np.trace(self.metric_inv(t, x), axis1=-2, axis2=-1)
        amp = np.where(rho > 1e-12, (self.d - tr) / (2 * safe ** 2), 0.0)
        return amp[..., None] * x

    # -- debugging dump -------------------------------------------------------

    def dump_json(self, n_x=8, n_t=5, seed=0):
        """JSON chart dump: model descriptor, grid times, sampled g entries."""
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, self.curve.T, n_t)
        samples = []
        for t in ts:
            xs = rng.standard_normal((n_x, self.d))
            xs *= (0.8 * self.tube_radius * rng.random((n_x, 1))
                   / np.linalg.norm(xs, axis=1, keepdims=True))
            for x in xs:
                samples.append({"t": float(t), "x": x.tolist(),
                                "g": self.metric(t, x).tolist()})
        return json.dumps({"model": self.model.describe(),
                           "curve": self.curve.describe(),
                           "tube_radius": self.tube_radius,
                           "grid_times": self.curve.grid.tolist(),
                           "samples": samples})


def _spd_sqrt(mats, t, x):
    """Symmetric PSD square root by eigendecomposition, eigenvalues clamped."""
    vals, vecs = np.linalg.eigh(mats)
    if np.any(vals < -1e-10):
        bad = np.unravel_index(int(np.argmin(vals)), vals.shape)
        raise NumericError(f"inverse metric not SPD at t={t}, point index {bad}")
    vals = np.clip(vals, 1e-12, None)
    root = np.sqrt(vals)
    return np.einsum("...ik,...k,...jk->...ij", vecs, root, vecs)


class RadialChart(MetricChart):
    """Closed-form chart of a constant-curvature model.

    The chart metric is the same at every time, because the model spaces are
    homogeneous: g = u u^T + tl(rho)^2 (I - u u^T), and a and c are radial.
    """

    is_radial = True

    def __init__(self, model, curve, tube_radius, vframe):
        super().__init__(model, curve, tube_radius, vframe)
        self._scalars = _RadialScalars(model.curv, model.dim)

    def _radial_parts(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.linalg.norm(x, axis=-1)
        safe = np.where(rho > 0, rho, 1.0)
        u = x / safe[..., None]
        u = np.where((rho > 0)[..., None], u, 0.0)
        return rho, u

    def _radial_matrix(self, x, power):
        """u u^T + tl^power (I - u u^T): g for power 2, g^-1 for -2.0, sigma for -1."""
        rho, u = self._radial_parts(x)
        tl = self._scalars.tl(rho)
        # a numpy float64 scalar ** -1 may round differently from 1 / tl
        m = 1.0 / tl if power == -1 else tl ** power
        uu = u[..., :, None] * u[..., None, :]
        return uu + m[..., None, None] * (np.eye(self.d) - uu)

    def metric(self, t, x):
        return self._radial_matrix(x, 2)

    def metric_inv(self, t, x):
        return self._radial_matrix(x, -2.0)

    def sigma(self, t, x):
        return self._radial_matrix(x, -1)

    def sqrt_det(self, t, x):
        rho, _ = self._radial_parts(x)
        return self._scalars.tl(rho) ** (self.d - 1)

    def sigma_apply(self, t, x, v):
        """sigma(t,x) @ v without forming matrices."""
        rho, u = self._radial_parts(x)
        ti = 1.0 / self._scalars.tl(rho)
        uv = np.einsum("...i,...i->...", u, v)
        return ti[..., None] * v + ((1.0 - ti) * uv)[..., None] * u

    def sigma_diag(self, t, x):
        rho, u = self._radial_parts(x)
        ti = 1.0 / self._scalars.tl(rho)
        return ti[..., None] + (1.0 - ti)[..., None] * u * u

    def coriolis(self, t, x):
        x = np.asarray(x, dtype=float)
        amp = self._scalars.coriolis_over_rho(np.linalg.norm(x, axis=-1))
        return amp[..., None] * x

    def bessel_drift(self, t, x):
        x = np.asarray(x, dtype=float)
        amp = self._scalars.bessel_over_rho(np.linalg.norm(x, axis=-1))
        return amp[..., None] * x

    def curvature_at(self, t):
        return _constant_curvature_data(self.model.curv, self.d, t)


# RK4 step bound along the unit-time geodesic parameterization, and the step
# of the 4-point finite-difference Jacobian of the exponential map.
_SHOT_MAX_STEP = 0.02
_SHOT_JAC_H = 5e-3


class ShotChart(MetricChart):
    """Numerical Fermi chart over an ambient metric.

    Geodesics are integrated with a classical RK4, and the chart metric is
    the pull-back of the ambient metric through a 4-point finite-difference
    Jacobian of the exponential map.  ``centers`` maps t to the ambient point
    gamma(t) and ``frames`` to the (d, d) matrix whose columns are the
    transported frame vectors there.
    """

    def __init__(self, model, curve, tube_radius, vframe, ambient, centers, frames):
        super().__init__(model, curve, tube_radius, vframe)
        self.ambient = ambient
        self.centers = centers
        self.frames = frames

    def _shoot(self, t, X):
        """exp_{gamma(t)}(X^i e_i(t)) for a batch X of shape (m, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        m, d = X.shape
        E = self.frames(t)
        y = np.broadcast_to(self.centers(t), (m, d)).copy()
        v = X @ E.T
        speed = float(np.max(np.linalg.norm(X, axis=1), initial=0.0))
        n = max(12, int(math.ceil(speed / _SHOT_MAX_STEP)))
        h = 1.0 / n

        def acc(y, v):
            gam = self.ambient.christoffel(y)
            return -np.einsum("mkij,mi,mj->mk", gam, v, v)

        for _ in range(n):
            k1y, k1v = v, acc(y, v)
            k2y, k2v = v + 0.5 * h * k1v, acc(y + 0.5 * h * k1y, v + 0.5 * h * k1v)
            k3y, k3v = v + 0.5 * h * k2v, acc(y + 0.5 * h * k2y, v + 0.5 * h * k2v)
            k4y, k4v = v + h * k3v, acc(y + h * k3y, v + h * k3v)
            y = y + (h / 6) * (k1y + 2 * k2y + 2 * k3y + k4y)
            v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
        return y

    def metric(self, t, x):
        X = np.asarray(x, dtype=float)
        flat = np.atleast_2d(X.reshape(-1, X.shape[-1]))
        m, d = flat.shape
        h = _SHOT_JAC_H
        pts = []
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            for c in (-2.0, -1.0, 1.0, 2.0):
                pts.append(flat + c * h * e)
        ends = self._shoot(t, np.concatenate(pts, axis=0)).reshape(d, 4, m, d)
        J = np.empty((m, d, d))  # J[m, a, i] = d end^a / d x^i
        for i in range(d):
            fm2, fm1, fp1, fp2 = ends[i]
            J[:, :, i] = (fm2 - 8 * fm1 + 8 * fp1 - fp2) / (12 * h)
        base = self._shoot(t, flat)
        G = self.ambient.metric(base)
        g = np.einsum("mai,mab,mbj->mij", J, G, J)
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
        return g.reshape(X.shape[:-1] + (d, d)) if X.ndim > 1 else g[0]

    def curvature_at(self, t):
        low = ambient_curvature(self.ambient, np.asarray(self.centers(t), dtype=float))
        E = self.frames(t)
        low = np.einsum("abcd,ai,bj,ck,dl->ijkl", low, E, E, E, E)
        ricci = np.einsum("ijil->jl", low)
        return CurvatureData(riemann=low, ricci=ricci, scalar=float(np.trace(ricci)),
                             at=(t, np.zeros(self.d)))


class _GridTable:
    """Cubic B-spline interpolant of a (d, d) field on the cube [-bound, bound]^d.

    ``fn`` maps points of shape (m, d) to values of shape (m, d, d) and is
    sampled once on ``n`` nodes per axis.  ``sign`` is +1 for a symmetric
    field and -1 for an antisymmetric one, whose zero diagonal is not stored.
    """

    def __init__(self, fn, bound, n, d, sign):
        axes = (np.linspace(-bound, bound, n),) * d
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        values = fn(mesh.reshape(-1, d)).reshape(mesh.shape[:-1] + (d, d))
        # imported after sampling: imported before it, scipy raised the peak
        # memory of a 15-node warped 3-d chart build by about 30 %
        from scipy import ndimage

        self.bound = float(bound)
        self.scale = (n - 1) / (2 * self.bound)
        self.d = d
        self.sign = sign
        first = 0 if sign > 0 else 1
        self.coeffs = {(i, j): ndimage.spline_filter(values[..., i, j], order=3, mode="mirror")
                       for i in range(d) for j in range(i + first, d)}

    def __call__(self, x):
        from scipy import ndimage

        x = np.asarray(x, dtype=float)
        flat = ((x + self.bound) * self.scale).reshape(-1, x.shape[-1]).T
        out = np.zeros(x.shape[:-1] + (self.d, self.d))
        for (i, j), coeffs in self.coeffs.items():
            v = ndimage.map_coordinates(coeffs, flat, order=3, prefilter=False,
                                        mode="mirror").reshape(x.shape[:-1])
            out[..., i, j] = v
            out[..., j, i] = self.sign * v
        return out


class PrecomputedChart(MetricChart):
    """Grid-sampled stand-in for a (time-independent) shot chart.

    Samples the metric once on a cube grid and evaluates it afterwards by
    cubic B-spline interpolation, making Monte Carlo over warped models
    tractable.  Interpolation error is a few parts in 1e6 at the default
    resolution; sigma, det g and the drifts are the base class's numerical
    evaluators applied to the interpolant.
    """

    def __init__(self, chart, n_nodes=25):
        if chart.is_radial:
            raise ConstructionError("closed-form charts need no tabulation")
        if chart.curve.kind != "constant":
            raise ConstructionError("only time-independent charts can be tabulated")
        super().__init__(chart.model, chart.curve, chart.tube_radius, chart._vframe)
        self._base = chart
        self._g = _GridTable(lambda x: chart.metric(0.0, x), chart.tube_radius,
                             n_nodes, self.d, 1.0)

    def metric(self, t, x):
        return self._g(x)

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

def coriolis_drift(chart, t, x):
    chart.check_domain(x)
    return chart.coriolis(t, x)


def besselization_drift(chart, t, x):
    chart.check_domain(x)
    return chart.bessel_drift(t, x)


def sigma_sqrt(chart, t, x):
    chart.check_domain(x)
    return chart.sigma(t, x)


def curvature_at(chart, t):
    return chart.curvature_at(t)


def curvature_from_chart_fd(chart, t=0.0, h=None):
    """Curvature at the origin from 4th-order FD Hessians of the chart metric.

    Uses R_ijkl = (g_il,jk + g_jk,il - g_ik,jl - g_jl,ik)/2, valid at the
    origin of a Fermi chart where the Christoffel symbols vanish.
    """
    d = chart.d
    h = h or 1e-3 * chart.tube_radius
    coef1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    off1 = np.array([-2.0, -1.0, 1.0, 2.0])

    # Hessian H[k, l, i, j] = d_k d_l g_ij(0) via nested 4-point stencils
    H = np.zeros((d, d, d, d))
    for k in range(d):
        ek = np.zeros(d)
        ek[k] = 1.0
        for l in range(k, d):
            el = np.zeros(d)
            el[l] = 1.0
            acc = np.zeros((d, d))
            for ck, wk in zip(off1, coef1):
                inner = np.zeros((d, d))
                for cl, wl in zip(off1, coef1):
                    inner += wl * chart.metric(t, ck * h * ek + cl * h * el)
                acc += wk * inner
            H[k, l] = acc / (h * h)
            H[l, k] = H[k, l]
    if not np.all(np.isfinite(H)):
        raise NumericError("non-finite metric Hessian in curvature estimate")
    riem = 0.5 * (np.einsum("jkil->ijkl", H) + np.einsum("iljk->ijkl", H)
                  - np.einsum("jlik->ijkl", H) - np.einsum("ikjl->ijkl", H))
    ricci = np.einsum("ijil->jl", riem)
    return CurvatureData(riemann=riem, ricci=ricci, scalar=float(np.trace(ricci)),
                         at=(t, np.zeros(d)))


def divergence_fd(fn, x, h):
    """Divergence of a vector field by 4th-order central differences."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    s = 0.0
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        s = s + (fn(x - 2 * h * e)[..., j] - 8 * fn(x - h * e)[..., j]
                 + 8 * fn(x + h * e)[..., j] - fn(x + 2 * h * e)[..., j]) / (12 * h)
    return s


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
