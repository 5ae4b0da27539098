"""Coupling of the radial reference process with a flat Brownian motion.

Both processes are driven by one n-dimensional Brownian motion W with
n = 1 + d(d-1)/2, through the isometries J^i built by ``build_J``:

    dY = sigma(t, Y) <J U, dW> + c(t, Y) dt,      U = Y/|Y|,
    dYt =            <J Ut, dW>,                  Ut = Yt/|Yt|,

where <J u, w> is the d-vector with components <J^i u, w>.  Property (c)
of the J construction makes <U, dB> = <Ut, dBt> = <e0, dW> exactly, so the
radial parts coincide pathwise in continuous time; the discrete gap is a
measured diagnostic.  Alongside the pair the integrator tracks Levy areas,
the inner-product process <U, Ut> with its closed-form SDE coefficients
H and G, the compensated exponential bookkeeping (Delta, nu), and the
area-integral martingale M_p.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _rng
from .errors import ChartDomainError, ConstructionError, InsufficientSamplesError
from .sde import _chunks, _step_lanes

__all__ = [
    "JMaps",
    "build_J",
    "CoupledState",
    "coupled_step",
    "levy_area_update",
    "H_of",
    "G_of",
    "omega_matrix",
    "inner_product_sde_step",
    "CoupledEnsemble",
    "RECORDS",
    "simulate_coupled_ensemble",
    "martingale_Mp",
    "delta_tail_estimate",
    "stokes_consistency",
    "DIAGNOSTICS_HEADER",
    "write_diagnostics_csv",
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

    def apply(self, u, w=None):
        """<J u, w> as a d-vector batch; with w=None returns J^i u stacked.

        u: (..., d); w: (..., n).  Output (..., d) resp. (..., d, n).
        """
        Ju = np.einsum("iab,...b->...ia", self.J, u)
        if w is None:
            return Ju
        return np.einsum("...ia,...a->...i", Ju, w)


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
    y = R[..., None] * U
    dv = chart.sigma_apply(t, y, U - U_tilde) - (U - U_tilde)
    return np.linalg.norm(dv, axis=-1) / R ** 2


def G_of(chart, t, R, U):
    """G = tr((sigma(t, R U) - I)^2) / R^4 (batched)."""
    R = np.asarray(R, dtype=float)
    y = R[..., None] * U
    s = chart.sigma(t, y)
    dev = s - np.eye(chart.d)
    return np.einsum("...ij,...ji->...", dev, dev) / R ** 4


def omega_matrix(U, U_tilde):
    """omega = U (x) Ut - Ut (x) U + <U, Ut> I, satisfying omega Ut = U."""
    U = np.asarray(U, dtype=float)
    U_tilde = np.asarray(U_tilde, dtype=float)
    c = np.einsum("...i,...i->...", U, U_tilde)
    eye = np.eye(U.shape[-1])
    return (U[..., :, None] * U_tilde[..., None, :]
            - U_tilde[..., :, None] * U[..., None, :]
            + c[..., None, None] * eye)


def inner_product_sde_step(chart, t, R, U, U_tilde, uu, dW1, dt):
    """One Euler step of d<U,Ut> = R H dW1 - (1/2) R^2 G <U,Ut> dt."""
    H = H_of(chart, t, R, U, U_tilde)
    G = G_of(chart, t, R, U)
    return R * H * dW1 - 0.5 * R ** 2 * G * uu * dt


def levy_area_update(A, y_old, y_new):
    """Stratonovich midpoint increment of the area matrix.

    dA^ij = ybar^i dy^j - ybar^j dy^i with ybar the step midpoint; the
    running matrix stays exactly antisymmetric.
    """
    return A + _area_increment(y_old, y_new)


# ---------------------------------------------------------------------------
# single-state step (reference implementation of the ensemble kernel)
# ---------------------------------------------------------------------------

@dataclass
class CoupledState:
    """Joint state of the coupled pair and its bookkeeping scalars."""

    t: float
    Y: np.ndarray
    Y_tilde: np.ndarray
    A: np.ndarray
    G_int: float = 0.0
    nu: float = 0.0
    M_ito: float = 0.0       # sum alpha_ij dA^ij (Ito, left point)
    M_bracket: float = 0.0   # sum (alpha_ij dA^ij)^2
    L: float = 0.0
    L_tilde: float = 0.0

    @property
    def R(self):
        return float(np.linalg.norm(self.Y))

    @property
    def R_tilde(self):
        return float(np.linalg.norm(self.Y_tilde))

    @property
    def U(self):
        return self.Y / self.R

    @property
    def U_tilde(self):
        return self.Y_tilde / self.R_tilde

    @property
    def uu(self):
        return float(self.U @ self.U_tilde)

    @property
    def Delta(self):
        return (1.0 - self.uu) * math.exp(0.5 * self.G_int)


def coupled_step(chart, state, dW, dt, forms=None):
    """Advance one coupled state by one Euler step from the shared noise dW.

    Uses the identical arithmetic as the vectorized ensemble integrator;
    exposed for direct inspection and unit tests.  Returns the new state
    and the per-step extras (dB, dBt, dW0, dW1, H, G, ...).
    """
    out = _step_batch(chart, build_J(chart.d), state.t,
                      state.Y[None, :], state.Y_tilde[None, :],
                      dW[None, :], dt, forms)
    new = CoupledState(
        t=state.t + dt,
        Y=out["Y"][0], Y_tilde=out["Yt"][0],
        A=levy_area_update(state.A, state.Y, out["Y"][0]),
        G_int=state.G_int + out["dG_int"][0],
        nu=state.nu + out["dnu"][0] * math.exp(state.G_int),
        M_ito=state.M_ito + out["dM_ito"][0],
        M_bracket=state.M_bracket + out["dM_bracket"][0],
        L=state.L + out["dL"][0],
        L_tilde=state.L_tilde + out["dLt"][0],
    )
    extras = {k: v[0] for k, v in out.items() if k.startswith("d") or k in ("w0_dev", "H", "G")}
    return new, extras


def _step_batch(chart, jmaps, t, Y, Yt, dW, dt, forms, fresh_w1=None):
    """Shared stepping arithmetic for a batch of coupled states.

    Y, Yt: (m, d); dW: (m, n), already scaled by sqrt(dt).  Returns the new
    states plus per-path increments of all bookkeeping accumulators
    (``dnu`` is returned without the exp(int R^2 G) factor, which the
    caller applies with its left-point running integral).
    """
    m, d = Y.shape
    R = np.linalg.norm(Y, axis=-1)
    Rt = np.linalg.norm(Yt, axis=-1)
    U = Y / R[:, None]
    Ut = Yt / Rt[:, None]

    dB = jmaps.apply(U, dW)
    dBt = jmaps.apply(Ut, dW)
    dW0 = dW[:, 0]
    w0_dev = np.maximum(np.abs(np.einsum("mi,mi->m", U, dB) - dW0),
                        np.abs(np.einsum("mi,mi->m", Ut, dBt) - dW0))

    sig_dB = chart.sigma_apply(t, Y, dB)
    Y_new = Y + sig_dB + chart.bessel_drift(t, Y) * dt
    Yt_new = Yt + dBt

    # inner-product SDE coefficients at the pre-step state
    sig_dU = chart.sigma_apply(t, Y, U - Ut) - (U - Ut)
    H = np.linalg.norm(sig_dU, axis=-1) / R ** 2
    G = G_of(chart, t, R, U)

    # W1 extraction: <(sigma - I) Ut, dB> / (R^2 H); on lanes where the
    # diffusion term degenerates a fresh independent increment stands in
    sig_Ut = chart.sigma_apply(t, Y, Ut) - Ut
    num = np.einsum("mi,mi->m", sig_Ut, dB)
    den = R ** 2 * H
    ok = den > 1e-14
    fallback = np.zeros(m) if fresh_w1 is None else fresh_w1
    dW1 = np.where(ok, num / np.where(ok, den, 1.0), fallback)

    dG_int = R ** 2 * G * dt
    dnu = R ** 2 * H ** 2 * dt

    out = {
        "Y": Y_new, "Yt": Yt_new, "R": R, "Rt": Rt, "U": U, "Ut": Ut,
        "dB": dB, "dBt": dBt, "dW0": dW0, "dW1": dW1, "H": H, "G": G,
        "w0_dev": w0_dev, "dG_int": dG_int, "dnu": dnu,
    }

    if forms is not None:
        K = forms.alpha_ij(t, Y)
        dA = _area_increment(Y, Y_new)
        kd = np.einsum("mij,mij->m", K, dA)
        out["dM_ito"] = kd
        out["dM_bracket"] = kd ** 2
        out["dL"] = forms.beta(t, U) * dt
        out["dLt"] = forms.beta(t, Ut) * dt
    else:
        z = np.zeros(m)
        out["dM_ito"] = z
        out["dM_bracket"] = z
        out["dL"] = z
        out["dLt"] = z
    return out


def _area_increment(y_old, y_new):
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

    def martingale_Mp(self, p):
        return martingale_Mp(self, p)

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
# diagnostics, per lane until the chunk sums and maximizes them
_RUNNING = {"max_radial_gap": 0.0, "uu_final": 1.0, "uu_pred": 1.0, "sup_udiff": 0.0,
            "M_ito": 0.0, "M_bracket": 0.0, "L": 0.0, "L_tilde": 0.0, "G_int": 0.0,
            "nu": 0.0, "ortho_cov": 0.0, "h2_le_g_violations": 0, "w0_identity_dev": 0.0}


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
    """
    if cfg.delta is None:
        raise ConstructionError("coupled ensembles need a tube radius delta")
    if cfg.delta >= chart.tube_radius:
        raise ChartDomainError("tube delta must stay below the chart tube radius")
    if cfg.bridge_correction:
        raise ConstructionError("bridge correction is not used in coupled runs; "
                                "the bookkeeping needs exact grid states")
    T, n_steps = cfg.horizon(chart.curve)
    d = chart.d
    j = build_J(d)
    dt = cfg.dt
    sq = math.sqrt(dt)
    delta = cfg.delta

    parts = []
    for chunk_id, m in _chunks(n_paths, chunk_range):
        gen = _rng.chunk_generator(cfg.seed, chunk_id)

        # launch: one plain Gaussian step shared by both processes
        Y = sq * gen.standard_normal((m, d))
        r0 = np.linalg.norm(Y, axis=-1)
        degenerate = r0 < 1e-300
        live = ~degenerate & (r0 < delta)
        tex = np.full(m, np.nan)
        tex[~live & ~degenerate] = dt
        lanes = np.nonzero(live)[0]

        def advance(k, s):
            Y = s["Y"]
            dW = sq * gen.standard_normal((Y.shape[0], j.n))
            w1f = sq * gen.standard_normal(Y.shape[0])
            res = _step_batch(chart, j, k * dt, Y, s["Yt"], dW, dt, forms, fresh_w1=w1f)
            run = dict(s, Y=res["Y"], Yt=res["Yt"])
            run["w0_identity_dev"] = np.maximum(s["w0_identity_dev"], res["w0_dev"])
            # H^2 <= G must hold pointwise; count violations with a tiny slack
            run["h2_le_g_violations"] = s["h2_le_g_violations"] + (
                res["H"] ** 2 > res["G"] * (1 + 1e-12) + 1e-30)

            Rn = np.linalg.norm(res["Y"], axis=-1)
            Rtn = np.linalg.norm(res["Yt"], axis=-1)
            run["max_radial_gap"] = np.maximum(s["max_radial_gap"], np.abs(Rn - Rtn))
            run["uu_pred"] = (s["uu_pred"] + res["R"] * res["H"] * res["dW1"]
                              - 0.5 * res["R"] ** 2 * res["G"] * s["uu_pred"] * dt)
            run["nu"] = s["nu"] + res["dnu"] * np.exp(s["G_int"])
            for name, inc in (("G_int", "dG_int"), ("M_ito", "dM_ito"), ("L", "dL"),
                              ("M_bracket", "dM_bracket"), ("L_tilde", "dLt")):
                run[name] = s[name] + res[inc]
            if d >= 2:
                dA01 = (0.5 * (Y[:, 0] + res["Y"][:, 0]) * (res["Y"][:, 1] - Y[:, 1])
                        - 0.5 * (Y[:, 1] + res["Y"][:, 1]) * (res["Y"][:, 0] - Y[:, 0]))
                run["ortho_cov"] = s["ortho_cov"] + dA01 * (Rn - res["R"])
            uu = np.einsum("mi,mi->m", res["Y"], res["Yt"]) / (Rn * Rtn)
            run["uu_final"] = uu
            run["sup_udiff"] = np.maximum(s["sup_udiff"],
                                          np.sqrt(np.maximum(2.0 * (1.0 - uu), 0.0)))
            return run, Rn >= delta

        # full-length records, copied into at exit and at the end, and the
        # compacted running state of the live lanes
        rec = {k: np.full(m, v) for k, v in _RUNNING.items()}
        state = {"Y": Y[lanes], "Yt": Y[lanes],
                 **{k: np.full(lanes.size, v) for k, v in _RUNNING.items()}}
        _step_lanes(advance, range(1, n_steps), dt, state, lanes, tex, rec)
        uu_pred = rec.pop("uu_pred")
        parts.append(CoupledEnsemble(
            n_paths=m, delta=delta, dt=dt, T=T, survived=np.isnan(tex) & ~degenerate,
            exit_time=tex,
            udiff_final=np.sqrt(np.maximum(2 * (1 - rec["uu_final"]), 0.0)),
            uu_pred_gap=rec["uu_final"] - uu_pred,
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
    from .om import alpha_form
    from numpy.polynomial.legendre import leggauss

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
    nodes, weights = leggauss(16)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    seg = 0.0
    for sv, wv in zip(s, w):
        seg += wv * float(alpha_form(chart, forms.field, tT, sv * yT) @ yT)
    line -= seg
    return line - area


DIAGNOSTICS_HEADER = ("delta", "dt", "paths", "survivors", "radial_gap_max",
                      "orthogonality_stat", "h2_le_g_violations",
                      "tail_q50", "tail_q90", "tail_q99")


def write_diagnostics_csv(fh, rows):
    """Diagnostic CSV: one row per ensemble cell."""
    import csv

    writer = csv.writer(fh)
    writer.writerow(DIAGNOSTICS_HEADER)
    for r in rows:
        writer.writerow(r)
