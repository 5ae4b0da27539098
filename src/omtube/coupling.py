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
without cancellation.  |Y| and |Yt| are taken once per step, at the exit
check, and carried to the next step as the lane state ``R`` and ``Rt``.
The records are listed once in ``RECORDS``: the inner product <U, Ut>
with the prediction of its closed-form SDE (coefficients H and G), the
compensated exponential's G_int and nu, the area martingale's Ito sum
M_ito and bracket M_bracket with the beta integrals L and L_tilde
(Levy-area increments by the Stratonovich midpoint rule), the running
maximum ``sup_radius`` of |Y| over the grid states, which picks out the
lanes that stay in any smaller tube, and the diagnostics.  A run computes
and carries only the records its caller asks for and the running state
they are formed from; a step computes each quantity those records share
(H, G, <U, Ut>, ...) once, when first read.  ``martingale_Mp`` forms M_p
from the area records.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import _rng
from .errors import ChartDomainError, ConstructionError, InsufficientSamplesError
from .geometry import _rowdot, _rowscale
from .sde import _chunks, _step_lanes

__all__ = [
    "JMaps",
    "build_J",
    "H_of",
    "G_of",
    "CoupledEnsemble",
    "RECORDS",
    "FORM_RECORDS",
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
    def _terms(self):
        """Per J^i, the (row, column, sign > 0) of its d entries +-1, rows
        rising; refuses a J^i that is not a signed permutation in the layout
        of ``build_J``, so that ``apply`` cannot read it wrongly."""
        i, a, b = np.nonzero(self.J)
        signs = self.J[i, a, b]
        if (self.J.shape != (self.d, self.n, self.d) or np.any(np.abs(signs) != 1.0)
                or np.any(np.bincount(i * self.d + b, minlength=self.d * self.d) != 1)):
            raise ConstructionError("each J^i must hold one entry +-1 per column")
        return [[(int(a[k]), int(b[k]), bool(signs[k] > 0)) for k in np.flatnonzero(i == ii)]
                for ii in range(self.d)]

    def apply(self, u, w=None):
        """<J u, w> as a d-vector batch; with w=None returns J^i u stacked.

        u: (..., d); w: (..., n).  Output (..., d) resp. (..., d, n).  Each
        component sums its d terms +-u[col] w[row] left to right, rows
        rising, one column at a time (no (..., d, d) gathers).
        """
        if w is None:
            return np.einsum("iab,...b->...ia", self.J, u)
        u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
        out = np.empty(np.broadcast_shapes(u.shape[:-1], w.shape[:-1]) + (self.d,))
        for i, terms in enumerate(self._terms):
            o = out[..., i]
            (row, col, pos), rest = terms[0], terms[1:]
            np.multiply(u[..., col], w[..., row], out=o)
            if not pos:
                np.negative(o, out=o)
            for row, col, pos in rest:
                (np.add if pos else np.subtract)(o, u[..., col] * w[..., row], out=o)
        return out


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
    """H = |(sigma(t, R U) - I)(U - Ut)| / R^2 (batched), the coupled loop's."""
    R = np.asarray(R, dtype=float)
    return _H(chart.at(t, R[..., None] * U), R, U - U_tilde)


def _H(at, R, dU):
    """H from the chart evaluated at R U and dU = U - Ut."""
    dv = at.sigma_apply(dU) - dU
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
    marks the paths that stayed inside for the whole horizon.  The fields
    from ``max_radial_gap`` on are the records, listed in ``RECORDS``: a run
    fills the ones it was asked for and leaves the others None.  The array
    fields have length n_paths; ``h2_le_g_violations`` counts the lane-steps
    where H^2 <= G fails and ``w0_identity_dev`` is the largest e0-identity
    deviation.
    """

    n_paths: int
    delta: float
    dt: float
    T: float
    survived: np.ndarray
    exit_time: np.ndarray
    max_radial_gap: np.ndarray = None
    uu_final: np.ndarray = None
    sup_udiff: np.ndarray = None      # running max of |U - Ut|
    sup_radius: np.ndarray = None     # running max of |Y| over the grid states, launch included
    udiff_final: np.ndarray = None
    M_ito: np.ndarray = None
    M_bracket: np.ndarray = None
    L: np.ndarray = None
    L_tilde: np.ndarray = None
    G_int: np.ndarray = None
    nu: np.ndarray = None
    ortho_cov: np.ndarray = None      # sum_k dA^ij d|Y| for the lexicographically first pair
    h2_le_g_violations: int = None
    w0_identity_dev: float = None
    uu_pred_gap: np.ndarray = None    # direct <U,Ut> minus Lemma-uu Euler prediction at T/exit

    @property
    def n_survive(self):
        return int(np.count_nonzero(self.survived))

    @classmethod
    def concat(cls, parts):
        """Join ensembles over consecutive chunk ranges, given in chunk order;
        the parts hold the same records."""
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        joined = {k: _JOIN.get(k, np.concatenate)([getattr(p, k) for p in parts])
                  for k in ("survived", "exit_time", *RECORDS) if getattr(first, k) is not None}
        return cls(n_paths=sum(p.n_paths for p in parts), delta=first.delta,
                   dt=first.dt, T=first.T, **joined)


RECORDS = tuple(f.name for f in fields(CoupledEnsemble) if f.default is None)
# the records of the area martingale and the beta integrals, which need forms
FORM_RECORDS = ("M_ito", "M_bracket", "L", "L_tilde")
_JOIN = {"h2_le_g_violations": sum, "w0_identity_dev": max}

# launch values of the running per-lane state: the records that accumulate
# along the path, the Lemma-uu prediction behind ``uu_pred_gap`` and the two
# diagnostics, per lane until the chunk sums and maximizes them; the launch
# sets ``sup_radius`` to the launch radius
_RUNNING = {"max_radial_gap": 0.0, "uu_final": 1.0, "uu_pred": 1.0, "sup_udiff": 0.0,
            "sup_radius": 0.0, "M_ito": 0.0, "M_bracket": 0.0, "L": 0.0, "L_tilde": 0.0,
            "G_int": 0.0, "nu": 0.0, "ortho_cov": 0.0, "h2_le_g_violations": 0,
            "w0_identity_dev": 0.0}

# the running state behind a record, where it is not the record alone: the
# records formed at the end of a chunk from others, and nu, whose increment
# takes the running G_int
_NEEDS = {"udiff_final": ("uu_final",), "uu_pred_gap": ("uu_final", "uu_pred"),
          "nu": ("nu", "G_int")}

# the records a chunk forms from its running state at the end
_FINAL = {"udiff_final": lambda rec: np.sqrt(np.maximum(2 * (1 - rec["uu_final"]), 0.0)),
          "uu_pred_gap": lambda rec: rec["uu_final"] - rec["uu_pred"],
          "h2_le_g_violations": lambda rec: int(rec["h2_le_g_violations"].sum()),
          "w0_identity_dev": lambda rec: float(rec["w0_identity_dev"].max(initial=0.0))}


class _PairStep:
    """One Euler step of Y and Yt from the lane state ``s`` and the shared dW,
    with one chart evaluation at Y, and the per-step quantities that the
    running records read, each computed when first read and kept, as
    ``_RadialPoint`` keeps rho, u and 1/tl."""

    def __init__(self, chart, jmaps, forms, t, dt, s, dW, w1f):
        self.d, self.forms, self.t, self.dt, self.dW, self.w1f = jmaps.d, forms, t, dt, dW, w1f
        self.Y = s["Y"]
        self.at = at = chart.at(t, self.Y, rho=s["R"])
        self.R, self.U = at.rho, at.u
        self.Ut = _rowscale(s["Yt"], s["Rt"], np.divide)
        self.dB = jmaps.apply(self.U, dW)
        self.dBt = jmaps.apply(self.Ut, dW)
        self.Yn = self.Y + at.sigma_apply(self.dB) + at.bessel_drift() * dt
        self.Ytn = s["Yt"] + self.dBt
        self.Rn = np.sqrt(_rowdot(self.Yn, self.Yn))
        self.Rtn = np.sqrt(_rowdot(self.Ytn, self.Ytn))

    # inner-product SDE coefficients at the pre-step state
    @cached_property
    def H(self):
        return _H(self.at, self.R, self.U - self.Ut)

    @cached_property
    def G(self):
        return self.at.G()

    @cached_property
    def dW1(self):
        # W1 extraction: <(sigma - I) Ut, dB> / (R^2 H); on lanes where the
        # diffusion term degenerates the fresh independent increment stands in
        num = _rowdot(self.at.sigma_apply(self.Ut) - self.Ut, self.dB)
        den = self.R ** 2 * self.H
        ok = den > 1e-14
        return np.where(ok, num / np.where(ok, den, 1.0), self.w1f)

    @cached_property
    def uu(self):
        return _rowdot(self.Yn, self.Ytn) / (self.Rn * self.Rtn)

    @cached_property
    def kd(self):
        return np.einsum("mij,mij->m", self.forms.alpha_ij(self.t, self.Y),
                         _area_increment(self.Y, self.Yn))

    @cached_property
    def dA01(self):
        Y, Yn = self.Y, self.Yn
        return (0.5 * (Y[:, 0] + Yn[:, 0]) * (Yn[:, 1] - Y[:, 1])
                - 0.5 * (Y[:, 1] + Yn[:, 1]) * (Yn[:, 0] - Y[:, 0]))


# one step's update of each running record from the lane state s and the step q
_UPDATE = {
    "max_radial_gap": lambda s, q: np.maximum(s["max_radial_gap"], np.abs(q.Rn - q.Rtn)),
    "uu_final": lambda s, q: q.uu,
    "uu_pred": lambda s, q: (s["uu_pred"] + q.R * q.H * q.dW1
                             - 0.5 * q.R ** 2 * q.G * s["uu_pred"] * q.dt),
    "sup_udiff": lambda s, q: np.maximum(s["sup_udiff"],
                                         np.sqrt(np.maximum(2.0 * (1.0 - q.uu), 0.0))),
    "sup_radius": lambda s, q: np.maximum(s["sup_radius"], q.Rn),
    "M_ito": lambda s, q: s["M_ito"] + q.kd,
    "M_bracket": lambda s, q: s["M_bracket"] + q.kd ** 2,
    "L": lambda s, q: s["L"] + q.forms.beta(q.t, q.U) * q.dt,
    "L_tilde": lambda s, q: s["L_tilde"] + q.forms.beta(q.t, q.Ut) * q.dt,
    "G_int": lambda s, q: s["G_int"] + q.R ** 2 * q.G * q.dt,
    # nu's increment takes the left-point running integral of R^2 G
    "nu": lambda s, q: s["nu"] + q.R ** 2 * q.H ** 2 * q.dt * np.exp(s["G_int"]),
    "ortho_cov": lambda s, q: s["ortho_cov"] + q.dA01 * (q.Rn - q.R),
    "h2_le_g_violations": lambda s, q: (s["h2_le_g_violations"]
                                        + _h2_exceeds_g(q.H, q.G, q.R, q.d)),
    "w0_identity_dev": lambda s, q: np.maximum(s["w0_identity_dev"], np.maximum(
        np.abs(_rowdot(q.U, q.dB) - q.dW[:, 0]), np.abs(_rowdot(q.Ut, q.dBt) - q.dW[:, 0]))),
}


def _coupled_advance(chart, jmaps, cfg, forms, gen, running):
    """``advance`` of coupled lanes on noise from ``gen``: one ``_PairStep``,
    then one update of each of the ``running`` records.  The lane state
    holds Y, Yt, R = |Y| and Rt = |Yt|, taken at the exit check (|Y| >= delta)
    and carried into the next step, and the running records."""
    dt, delta = cfg.dt, cfg.delta
    sq = math.sqrt(dt)

    def advance(k, s):
        m = s["Y"].shape[0]
        dW = sq * gen.standard_normal((m, jmaps.n))
        # drawn on every step, read or not, so that the stream and every
        # record stay the same whichever records a run keeps
        w1f = sq * gen.standard_normal(m)
        q = _PairStep(chart, jmaps, forms, k * dt, dt, s, dW, w1f)
        run = {"Y": q.Yn, "Yt": q.Ytn, "R": q.Rn, "Rt": q.Rtn}
        run.update((name, _UPDATE[name](s, q)) for name in running)
        return run, q.Rn >= delta
    return advance


def martingale_Mp(records, p):
    """M_p(T) = p * Ito area integral - (p^2/2) * accumulated bracket."""
    return p * np.asarray(records.M_ito) - 0.5 * p * p * np.asarray(records.M_bracket)


def simulate_coupled_ensemble(chart, cfg, n_paths, forms=None, chunk_range=None,
                              records=RECORDS):
    """Run the coupled pair for an ensemble and collect ``records``.

    ``records`` names the records of ``RECORDS`` to compute (default: all);
    a step updates only those and the running state they are formed from,
    and the others come back None.  The survival and exit times come back
    always.  ``forms`` (a :class:`~omtube.om.GirsanovForms`) drives the
    records of ``FORM_RECORDS``, the area martingale and the beta
    integrals; without forms they read 0.  The pair is launched from one
    shared plain Gaussian step (sigma(0) = I, c(0) = 0), after which both
    spherical parts are defined and equal.  Each chunk then runs the
    stepping loop of :mod:`omtube.sde` over the pair and the running
    records; a lane leaves at the first grid state with |Y| >= delta.
    ``chunk_range`` is as in ``sde.run_tube_ensemble``.  The pair steps by
    Euler-Maruyama; any other ``cfg.scheme`` is refused.  A record's bits
    do not depend on which other records are asked for.
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
    records = tuple(records)
    unknown = sorted(set(records) - set(RECORDS))
    if unknown:
        raise ConstructionError(f"unknown coupled records {unknown}; see coupling.RECORDS")
    T, n_steps = cfg.horizon(chart.curve)
    j, dt, delta = build_J(chart.d), cfg.dt, cfg.delta
    need = {k for r in records for k in _NEEDS.get(r, (r,))}
    running = [k for k in _RUNNING if k in need]
    # without forms the form records keep their launch value 0, and in d = 1,
    # with no coordinate plane, so does ortho_cov
    stepped = [k for k in running if not (forms is None and k in FORM_RECORDS
                                          or k == "ortho_cov" and j.d < 2)]

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
        rec = {k: r0 if k == "sup_radius" else np.full(m, _RUNNING[k]) for k in running}
        state = {"Y": Y.take(lanes, axis=0), "Yt": Y.take(lanes, axis=0), "R": r0.take(lanes),
                 "Rt": r0.take(lanes), **{k: rec[k].take(lanes) for k in stepped}}
        _step_lanes(_coupled_advance(chart, j, cfg, forms, gen, stepped), range(1, n_steps), dt,
                    state, lanes, tex, {k: rec[k] for k in stepped})
        parts.append(CoupledEnsemble(
            n_paths=m, delta=delta, dt=dt, T=T, survived=np.isnan(tex) & ~degenerate,
            exit_time=tex, **{k: _FINAL[k](rec) if k in _FINAL else rec[k] for k in records}))
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

