"""Coupling of the radial reference process with a flat Brownian motion.

Both processes are driven by one n-dimensional Brownian motion W with
n = 1 + d(d-1)/2, through the isometries J^i built by ``build_J``:

    dY = sigma(t, Y) <J U, dW> + c(t, Y) dt,      U = Y/|Y|,
    dYt =            <J Ut, dW>,                  Ut = Yt/|Yt|,

where <J u, w> is the d-vector with components <J^i u, w>.  Property (c)
of the J construction makes <U, dB> = <Ut, dBt> = <e0, dW> exactly, so the
radial parts coincide pathwise in continuous time; the discrete gap is a
measured diagnostic.

``simulate_coupled_ensemble`` is the one integrator: each chunk runs the
stepping loop of :mod:`omtube.sde` with the ``advance`` that
``_coupled_advance`` builds, the counterpart of ``sde._tube_advance``.  A
step evaluates the chart once at Y (``chart.at``); on radial charts G is
the closed form (d - 1)(K q)^2 with q = (1/tl(R) - 1)/(K R^2) summed
without cancellation.  |Yt| is taken once per step, at the exit check,
and carried to the next step as the lane state ``Rt``.  Each lane
carries the records listed once in ``RECORDS``: the inner product
<U, Ut> with the prediction of its closed-form SDE (coefficients H and
G), the compensated exponential's G_int and nu, the area martingale's Ito
sum M_ito and bracket M_bracket with the beta integrals L and L_tilde
(Levy-area increments by the Stratonovich midpoint rule), the running
maximum ``sup_radius`` of |Y| over the grid states, which picks out the
lanes that stay in any smaller tube, and the diagnostics.
``martingale_Mp`` forms M_p from those records.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import _rng
from .errors import ChartDomainError, ConstructionError, InsufficientSamplesError
from .geometry import _rowdot
from .sde import _chunks, _step_lanes

__all__ = [
    "JMaps",
    "build_J",
    "H_of",
    "G_of",
    "CoupledEnsemble",
    "RECORDS",
    "simulate_coupled_ensemble",
    "martingale_Mp",
    "delta_tail_estimate",
    "stokes_consistency",
    "DIAGNOSTICS_HEADER",
]


# ---------------------------------------------------------------------------
# the linear-algebra lemma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JMaps:
    """The d isometries J^i : R^d -> R^n, n = 1 + d(d-1)/2.

    ``J[i]`` is the n x d matrix of J^i; basis vector 0 of R^n is the
    distinguished direction e0 with sum_i u^i J^i u = |u|^2 e0.
    """

    d: int
    n: int
    J: np.ndarray

    @cached_property
    def _gather(self):
        """(rows, cols, signs) of the d entries +-1 of each J^i, rows rising;
        refuses a J^i that is not a signed permutation in the layout of
        ``build_J``, so the gather of ``apply`` cannot read it wrongly."""
        i, a, b = np.nonzero(self.J)
        signs = self.J[i, a, b]
        if (self.J.shape != (self.d, self.n, self.d) or np.any(np.abs(signs) != 1.0)
                or np.any(np.bincount(i * self.d + b, minlength=self.d * self.d) != 1)):
            raise ConstructionError("each J^i must hold one entry +-1 per column")
        return a.reshape(self.d, -1), b.reshape(self.d, -1), signs.reshape(self.d, -1)

    def apply(self, u, w=None):
        """<J u, w> as a d-vector batch; with w=None returns J^i u stacked.

        u: (..., d); w: (..., n).  Output (..., d) resp. (..., d, n).
        """
        if w is None:
            return np.einsum("iab,...b->...ia", self.J, u)
        rows, cols, signs = self._gather
        Ju = signs * np.asarray(u, dtype=float)[..., cols]
        return _rowdot(Ju, np.asarray(w, dtype=float)[..., rows])


def build_J(d):
    """Explicit construction: J^i e_a = e_{ia} (i<a), e0 (i=a), -e_{ai} (i>a)."""
    if d < 1:
        raise ConstructionError("dimension must be >= 1")
    n = 1 + d * (d - 1) // 2
    pair_index = {}
    nxt = 1
    for a in range(d):
        for b in range(a + 1, d):
            pair_index[(a, b)] = nxt
            nxt += 1
    J = np.zeros((d, n, d))
    for i in range(d):
        for a in range(d):
            if i < a:
                J[i, pair_index[(i, a)], a] = 1.0
            elif i == a:
                J[i, 0, a] = 1.0
            else:
                J[i, pair_index[(a, i)], a] = -1.0
    return JMaps(d=d, n=n, J=J)


# ---------------------------------------------------------------------------
# closed-form SDE coefficients of the inner product
# ---------------------------------------------------------------------------

def H_of(chart, t, R, U, U_tilde):
    """H = |(sigma(t, R U) - I)(U - Ut)| / R^2 (batched)."""
    R = np.asarray(R, dtype=float)
    dv = chart.at(t, R[..., None] * U).sigma_apply(U - U_tilde) - (U - U_tilde)
    return np.sqrt(_rowdot(dv, dv)) / R ** 2


def G_of(chart, t, R, U):
    """G = tr((sigma(t, y) - I)^2) / |y|^4 at y = R U (batched); on radial
    charts the closed form (d - 1)(1/tl(|y|) - 1)^2 / |y|^4, summed without
    cancellation."""
    return chart.at(t, np.asarray(R, dtype=float)[..., None] * U).G()


def _h2_exceeds_g(H, G, R, d):
    """The lanes where H^2 <= G fails beyond rounding.

    H, summed from sigma v - v, carries a rounding error of a few
    eps (1/tl) / |1/tl - 1| relative, which exceeds 1e-12 at small R when
    U is perpendicular to Ut; G on a radial chart is good to a few eps.
    The lanes that fail a 1e-12 relative slack are checked again with that
    bound, taking |1/tl - 1| = R^2 sqrt(G / (d - 1)) from G itself.
    """
    out = H ** 2 > G * (1 + 1e-12) + 1e-30
    if out.any():
        Hs, Gs, q = H[out], G[out], R[out] ** 2 * np.sqrt(G[out] / (d - 1))
        lost = np.finfo(float).eps * (1 + q) / np.maximum(q, np.finfo(float).tiny)
        out[out] = Hs ** 2 > Gs * (1 + 4 * lost) + 1e-30
    return out


def _area_increment(y_old, y_new):
    """Stratonovich midpoint increment of the Levy area matrix,
    dA^ij = ybar^i dy^j - ybar^j dy^i with ybar the step midpoint; exactly
    antisymmetric."""
    ybar = 0.5 * (y_old + y_new)
    dy = y_new - y_old
    return ybar[..., :, None] * dy[..., None, :] - dy[..., :, None] * ybar[..., None, :]


# ---------------------------------------------------------------------------
# vectorized coupled ensembles
# ---------------------------------------------------------------------------

@dataclass
class CoupledEnsemble:
    """Per-path terminal records of a coupled simulation.

    Paths that exit the tube are frozen at their exit step; ``survived``
    marks the paths that stayed inside for the whole horizon.  The array
    fields, listed in ``RECORDS``, have length n_paths.
    """

    n_paths: int
    delta: float
    dt: float
    T: float
    survived: np.ndarray
    exit_time: np.ndarray
    max_radial_gap: np.ndarray
    uu_final: np.ndarray
    sup_udiff: np.ndarray      # running max of |U - Ut|
    sup_radius: np.ndarray     # running max of |Y| over the grid states, launch included
    udiff_final: np.ndarray
    M_ito: np.ndarray
    M_bracket: np.ndarray
    L: np.ndarray
    L_tilde: np.ndarray
    G_int: np.ndarray
    nu: np.ndarray
    ortho_cov: np.ndarray      # sum_k dA^ij d|Y| for the lexicographically first pair
    h2_le_g_violations: int
    w0_identity_dev: float
    uu_pred_gap: np.ndarray    # direct <U,Ut> minus Lemma-uu Euler prediction at T/exit

    @property
    def n_survive(self):
        return int(np.count_nonzero(self.survived))

    @classmethod
    def concat(cls, parts):
        """Join ensembles over consecutive chunk ranges, given in chunk order."""
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        return cls(n_paths=sum(p.n_paths for p in parts), delta=first.delta,
                   dt=first.dt, T=first.T,
                   h2_le_g_violations=sum(p.h2_le_g_violations for p in parts),
                   w0_identity_dev=max(p.w0_identity_dev for p in parts),
                   **{k: np.concatenate([getattr(p, k) for p in parts]) for k in RECORDS})


RECORDS = tuple(f.name for f in fields(CoupledEnsemble) if f.type is np.ndarray)

# launch values of the running per-lane state: the records that accumulate
# along the path, the Lemma-uu prediction behind ``uu_pred_gap`` and the two
# diagnostics, per lane until the chunk sums and maximizes them; the launch
# sets ``sup_radius`` to the launch radius
_RUNNING = {"max_radial_gap": 0.0, "uu_final": 1.0, "uu_pred": 1.0, "sup_udiff": 0.0,
            "sup_radius": 0.0, "M_ito": 0.0, "M_bracket": 0.0, "L": 0.0, "L_tilde": 0.0,
            "G_int": 0.0, "nu": 0.0, "ortho_cov": 0.0, "h2_le_g_violations": 0,
            "w0_identity_dev": 0.0}


def _coupled_advance(chart, jmaps, cfg, forms, gen):
    """``advance`` of coupled lanes on noise from ``gen``: one Euler step of
    Y and Yt from the shared dW and one chart evaluation at Y, then one
    update of each running record.  The lane state holds Y, Yt, the ``_RUNNING``
    records and Rt = |Yt|, taken at the exit check (|Y| >= delta) and
    carried into the next step."""
    d, dt, delta = jmaps.d, cfg.dt, cfg.delta
    sq = math.sqrt(dt)

    def advance(k, s):
        t, Y, Yt = k * dt, s["Y"], s["Yt"]
        dW = sq * gen.standard_normal((Y.shape[0], jmaps.n))
        w1f = sq * gen.standard_normal(Y.shape[0])
        at = chart.at(t, Y)
        R, U = at.rho, at.u
        Ut = Yt / s["Rt"][:, None]
        dB = jmaps.apply(U, dW)
        dBt = jmaps.apply(Ut, dW)
        w0_dev = np.maximum(np.abs(_rowdot(U, dB) - dW[:, 0]), np.abs(_rowdot(Ut, dBt) - dW[:, 0]))
        Yn = Y + at.sigma_apply(dB) + at.bessel_drift() * dt
        Ytn = Yt + dBt

        # inner-product SDE coefficients at the pre-step state
        dv = at.sigma_apply(U - Ut) - (U - Ut)
        H = np.sqrt(_rowdot(dv, dv)) / R ** 2
        G = at.G()
        # W1 extraction: <(sigma - I) Ut, dB> / (R^2 H); on lanes where the
        # diffusion term degenerates the fresh independent increment stands in
        num = _rowdot(at.sigma_apply(Ut) - Ut, dB)
        den = R ** 2 * H
        ok = den > 1e-14
        dW1 = np.where(ok, num / np.where(ok, den, 1.0), w1f)

        Rn = np.sqrt(_rowdot(Yn, Yn))
        Rtn = np.sqrt(_rowdot(Ytn, Ytn))
        uu = _rowdot(Yn, Ytn) / (Rn * Rtn)
        run = dict(
            s, Y=Yn, Yt=Ytn, Rt=Rtn, uu_final=uu,
            w0_identity_dev=np.maximum(s["w0_identity_dev"], w0_dev),
            h2_le_g_violations=s["h2_le_g_violations"] + _h2_exceeds_g(H, G, R, d),
            max_radial_gap=np.maximum(s["max_radial_gap"], np.abs(Rn - Rtn)),
            uu_pred=s["uu_pred"] + R * H * dW1 - 0.5 * R ** 2 * G * s["uu_pred"] * dt,
            # nu's increment takes the left-point running integral of R^2 G
            nu=s["nu"] + R ** 2 * H ** 2 * dt * np.exp(s["G_int"]),
            G_int=s["G_int"] + R ** 2 * G * dt,
            sup_udiff=np.maximum(s["sup_udiff"], np.sqrt(np.maximum(2.0 * (1.0 - uu), 0.0))),
            sup_radius=np.maximum(s["sup_radius"], Rn))
        if forms is not None:
            kd = np.einsum("mij,mij->m", forms.alpha_ij(t, Y), _area_increment(Y, Yn))
            run.update(M_ito=s["M_ito"] + kd, M_bracket=s["M_bracket"] + kd ** 2,
                       L=s["L"] + forms.beta(t, U) * dt,
                       L_tilde=s["L_tilde"] + forms.beta(t, Ut) * dt)
        if d >= 2:
            dA01 = (0.5 * (Y[:, 0] + Yn[:, 0]) * (Yn[:, 1] - Y[:, 1])
                    - 0.5 * (Y[:, 1] + Yn[:, 1]) * (Yn[:, 0] - Y[:, 0]))
            run["ortho_cov"] = s["ortho_cov"] + dA01 * (Rn - R)
        return run, Rn >= delta
    return advance


def martingale_Mp(records, p):
    """M_p(T) = p * Ito area integral - (p^2/2) * accumulated bracket."""
    return p * np.asarray(records.M_ito) - 0.5 * p * p * np.asarray(records.M_bracket)


def simulate_coupled_ensemble(chart, cfg, n_paths, forms=None, chunk_range=None):
    """Run the coupled pair for an ensemble and collect diagnostics.

    ``forms`` (a :class:`~omtube.om.GirsanovForms`) switches on the
    bookkeeping of the area martingale and the beta integrals.  The pair is
    launched from one shared plain Gaussian step (sigma(0) = I, c(0) = 0),
    after which both spherical parts are defined and equal.  Each chunk
    then runs the stepping loop of :mod:`omtube.sde` over the pair and the
    running records; a lane leaves at the first grid state with
    |Y| >= delta.  ``chunk_range`` is as in ``sde.run_tube_ensemble``.
    The pair steps by Euler-Maruyama; any other ``cfg.scheme`` is refused.
    """
    if cfg.delta is None:
        raise ConstructionError("coupled ensembles need a tube radius delta")
    if cfg.delta >= chart.tube_radius:
        raise ChartDomainError("tube delta must stay below the chart tube radius")
    if cfg.bridge_correction:
        raise ConstructionError("bridge correction is not used in coupled runs; "
                                "the bookkeeping needs exact grid states")
    if cfg.scheme != "euler_maruyama":
        raise ConstructionError(f"coupled runs step by euler_maruyama, not {cfg.scheme!r}")
    T, n_steps = cfg.horizon(chart.curve)
    j, dt, delta = build_J(chart.d), cfg.dt, cfg.delta

    parts = []
    for chunk_id, m in _chunks(n_paths, chunk_range):
        gen = _rng.chunk_generator(cfg.seed, chunk_id)

        # launch: one plain Gaussian step shared by both processes
        Y = math.sqrt(dt) * gen.standard_normal((m, j.d))
        r0 = np.sqrt(_rowdot(Y, Y))
        degenerate = r0 < 1e-300
        live = ~degenerate & (r0 < delta)
        tex = np.full(m, np.nan)
        tex[~live & ~degenerate] = dt
        lanes = np.flatnonzero(live)

        # full-length records, copied into at exit and at the end, and the
        # compacted running state of the live lanes
        rec = {**{k: np.full(m, v) for k, v in _RUNNING.items()}, "sup_radius": r0}
        state = {"Y": Y.take(lanes, axis=0), "Yt": Y.take(lanes, axis=0), "Rt": r0.take(lanes),
                 **{k: v.take(lanes) for k, v in rec.items()}}
        _step_lanes(_coupled_advance(chart, j, cfg, forms, gen), range(1, n_steps), dt,
                    state, lanes, tex, rec)
        parts.append(CoupledEnsemble(
            n_paths=m, delta=delta, dt=dt, T=T, survived=np.isnan(tex) & ~degenerate,
            exit_time=tex,
            udiff_final=np.sqrt(np.maximum(2 * (1 - rec["uu_final"]), 0.0)),
            uu_pred_gap=rec["uu_final"] - rec.pop("uu_pred"),
            h2_le_g_violations=int(rec.pop("h2_le_g_violations").sum()),
            w0_identity_dev=float(rec.pop("w0_identity_dev").max(initial=0.0)), **rec))
    return CoupledEnsemble.concat(parts)


# ---------------------------------------------------------------------------
# tail of the spherical separation
# ---------------------------------------------------------------------------

def delta_tail_estimate(ensemble, lambdas=None):
    """Conditional tail of sup |U - Ut| / sqrt(delta) over surviving paths.

    Returns (lambdas, tail, K) where ``tail[i] = P[sup > lambda_i | tube]``
    and K is the least-squares fit of the Gaussian-bound template
    2 P[N(0,1) > K lambda^2] to the empirical tail.
    """
    from scipy import optimize, stats

    surv = ensemble.survived
    if np.count_nonzero(surv) < 100:
        raise InsufficientSamplesError(
            f"only {np.count_nonzero(surv)} surviving paths; need >= 100")
    scaled = ensemble.sup_udiff[surv] / math.sqrt(ensemble.delta)
    if lambdas is None:
        hi = max(float(np.quantile(scaled, 0.995)), 1e-6)
        lambdas = np.linspace(0.25 * hi, hi, 8)
    lambdas = np.asarray(lambdas, dtype=float)
    tail = np.array([np.mean(scaled > lam) for lam in lambdas])

    mask = (tail > 0) & (tail < 1)
    if mask.sum() >= 2:
        def loss(logK):
            model = 2.0 * stats.norm.sf(np.exp(logK) * lambdas[mask] ** 2)
            return np.sum((np.log(tail[mask]) - np.log(model)) ** 2)

        res = optimize.minimize_scalar(loss, bounds=(-10, 10), method="bounded")
        K = float(np.exp(res.x))
    else:
        K = float("nan")
    return lambdas, tail, K


# ---------------------------------------------------------------------------
# stochastic Stokes consistency
# ---------------------------------------------------------------------------

def stokes_consistency(chart, forms, path):
    """Difference between the line-integral and area-integral expressions.

    Computes (i) the midpoint (Stratonovich) line integral of alpha along
    the recorded path plus the straight radial closing segment at the final
    time, and (ii) the area form sum int alpha_kernel o dA; returns
    line - area, which vanishes at discretization order for autonomous
    configurations.
    """
    from .om import _gauss_legendre_01, alpha_form

    y = np.asarray(path.states, dtype=float)
    times = np.asarray(path.times, dtype=float)
    if y.shape[0] < 2:
        return 0.0
    mid = 0.5 * (y[:-1] + y[1:])
    tmid = 0.5 * (times[:-1] + times[1:])
    dy = np.diff(y, axis=0)

    line = 0.0
    area = 0.0
    for k in range(len(dy)):
        al = alpha_form(chart, forms.field, tmid[k], mid[k])
        line += float(al @ dy[k])
        K = forms.alpha_ij(tmid[k], mid[k])
        dA = _area_increment(y[k], y[k + 1])
        area += float(np.sum(K * dA))

    # closing radial segment from y(T) back to the origin at frozen time
    yT = y[-1]
    tT = times[-1]
    seg = 0.0
    for sv, wv in zip(*_gauss_legendre_01(16)):
        seg += wv * float(alpha_form(chart, forms.field, tT, sv * yT) @ yT)
    line -= seg
    return line - area


DIAGNOSTICS_HEADER = ("delta", "dt", "paths", "survivors", "radial_gap_max",
                      "orthogonality_stat", "h2_le_g_violations",
                      "tail_q50", "tail_q90", "tail_q99")

