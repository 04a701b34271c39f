"""Weighted least-squares estimation of the measurement models.

Each measurement (thermometry scan, tipping-angle precession, far-detuned
decoherence decay) has one entry point, fit_thermometry, fit_precession or
fit_far_detuned_gamma, which checks the scan, picks its start candidates
and hands a model(x, p, jac=False) closure to `_fit`, the one damped
Gauss-Newton engine.  The engine ranks the starts with plain calls and
then evaluates each parameter point once, with its derivative.  The model
functions, with their analytic derivatives, live in `interactions`, shared
with the simulators.
Parameter uncertainties come from the inverse normal equations at the
optimum: FitResult.sigmas are scaled by sqrt(chi2_reduced) when it exceeds
one (the conservative convention).  fit_f0_sq fits F0^2 >= 0 to the
precession scans of several detunings at once, scan k with jbar = c_k F0^2;
fit_precession is the one-scan, unbounded case, c = 1, of that coupling fit.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import TWO_PI
from .core import OdfDrive, Record, TrapIonConfig
from .csvio import ScanDataset
from .geometry import BeamGeometry
from .interactions import gamma_decay_lineshape, j_bar, precession_lineshape, thermometry_model


class FitInputError(ValueError):
    """Dataset or configuration unusable for the requested fit."""


class FitResult(Record):
    params: dict  # name -> fitted value
    sigmas: dict  # name -> 1-sigma uncertainty, times sqrt(chi2_reduced) when that exceeds 1
    chi2_reduced: float
    converged: bool
    iterations: int
    flags: tuple = ()


_MAX_ITER = 200
_REL_STEP_TOL = 1e-10
_REL_COST_TOL = 1e-12


def _fit(names, model, x, data, starts, lower=None) -> FitResult:
    """Damped Gauss-Newton weighted least squares of model(x, p) to data.p_up.

    model(x, p) gives the model values and model(x, p, jac=True) the pair
    (values, (n, k) derivatives).  Plain calls rank the starts; the loop
    begins at the cheapest, damps Levenberg-style, enforces the optional
    per-parameter lower bound by projection, and evaluates each point, the
    start and every trial, once with its derivative.  Sigmas come from the
    inverse normal equations at the optimum, times sqrt(chi2_reduced) when
    that exceeds one.
    """
    y, w = data.p_up, 1.0 / data.sigma

    def residual(p, jac=False):
        """(y - model) / sigma at p; with jac=True also d model / d p / sigma."""
        if not jac:
            return (y - model(x, p)) * w
        values, d = model(x, p, jac=True)
        return (y - values) * w, d * w[:, None]

    def half_sq(r):
        return 0.5 * float(r @ r)

    if lower is not None:
        lower = np.array(lower, float)
        starts = [np.maximum(s, lower) for s in starts]
    p = np.array(min(starts, key=lambda s: half_sq(residual(s))), float)
    lam = 1e-3
    r, jac = residual(p, jac=True)
    cost = half_sq(r)
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        jtj = jac.T @ jac
        g = jac.T @ r
        jac = None  # free it: jtj and g hold what the loop needs, and a trial brings its own
        accepted = False
        for _ in range(50):
            damped = jtj + lam * np.diag(np.clip(np.diag(jtj), 1e-300, None))
            try:
                step = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = p + step
            if lower is not None:
                p_new = np.maximum(p_new, lower)
                step = p_new - p
            r_new, jac_new = residual(p_new, jac=True)
            cost_new = half_sq(r_new)
            if cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        lam = max(lam / 3.0, 1e-14)
        rel_step = np.linalg.norm(step) / (np.linalg.norm(p_new) + 1e-300)
        rel_drop = (cost - cost_new) / max(cost, 1e-300)
        p, r, cost, jac = p_new, r_new, cost_new, jac_new
        if rel_step < _REL_STEP_TOL or rel_drop < _REL_COST_TOL:
            converged = True
            break
    if jac is not None:  # the loop ended on an accepted step: jtj is the point's before it
        jtj = jac.T @ jac

    dof = max(len(y) - len(names), 1)
    chi2_red = 2.0 * cost / dof
    flags = []
    diag = np.diag(jtj)
    identifiable = diag > 1e-12 * max(float(diag.max()), 1e-300)
    if not identifiable.all():
        flags.append("unidentifiable")
        converged = False
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    sig_raw = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    sig_raw = np.where(identifiable, sig_raw, np.inf)
    scale = math.sqrt(chi2_red) if chi2_red > 1.0 else 1.0
    if lower is not None and (p <= lower + 1e-300).any():
        flags.append("bound_active")
    return FitResult(
        params=dict(zip(names, (float(v) for v in p))),
        sigmas=dict(zip(names, (float(s * scale) for s in sig_raw))),
        chi2_reduced=chi2_red,
        converged=bool(converged),
        iterations=it,
        flags=tuple(flags),
    )


def _span(abscissa, name):
    return f"the abscissa ({name}) spans [{abscissa.min():g}, {abscissa.max():g}]"


def _abscissa(data: ScanDataset, min_points, name, scale=1.0):
    """The model's x, scale times data.abscissa, once the scan is checked to be fittable."""
    if len(data) < min_points:
        raise FitInputError(f"need at least {min_points} points, got {len(data)}")
    largest = float(np.abs(data.abscissa).max()) * scale
    if not largest <= math.sqrt(np.finfo(float).max / len(data)):
        raise FitInputError(f"{_span(data.abscissa, name)}: too large to fit, "
                            "its sum of squares overflows")
    return scale * data.abscissa


def fit_thermometry(data: ScanDataset, geom: BeamGeometry, drive: OdfDrive,
                    cfg: TrapIonConfig) -> FitResult:
    """Fit the spin-echo thermometry lineshape for (omega_com, n_bar).

    Gamma, the ion number, and the force-determining inputs (geometry and
    |delta_ac|) are fixed externally; see interactions.thermometry_model.
    The dataset abscissa is mu/2pi in Hz; the model takes mu.
    """
    mu = _abscissa(data, 6, "mu/2pi in Hz", TWO_PI)  # 6 points span the resonance
    lo, hi = float(mu.min()), float(mu.max())

    def in_domain(omega_com):
        """z0^2 = hbar / (2 M omega_com) finite (2 M omega_com > 0, no underflow), and omega_com
        in the scanned span of mu widened by itself on each side; farther out P_up is flat."""
        return 2.0 * lo - hi <= omega_com <= 2.0 * hi - lo and 2.0 * cfg.ion_mass * omega_com > 0

    def model(mu, p, jac=False):
        # outside that domain the cost is infinite: a step there counts as a cost increase
        if not in_domain(p[0]):
            values = np.full(len(mu), np.inf)
            return (values, np.full((len(mu), 2), np.inf)) if jac else values
        return thermometry_model(mu, *p, geom, drive, cfg, jac=jac)

    # cheap multi-start grid: resonance from the lobe centroid, omega_com > 0
    p_up = data.p_up
    weight = np.clip(p_up - p_up.min(), 0.0, None)
    centroid = float((weight * mu).sum() / weight.sum()) if weight.sum() > 0 else float(mu.mean())
    peak = float(mu[np.argmax(p_up)])
    half_lobe = math.pi / drive.tau
    omegas = [w for w in (centroid, peak, peak - half_lobe, peak + half_lobe) if in_domain(w)]
    if not omegas:
        raise FitInputError(f"no omega_com > 0 with a finite z0^2 near the scan to start from: "
                            f"{_span(data.abscissa, 'mu/2pi in Hz')}")
    starts = [(w, n) for w in omegas for n in (5.0, 1.0, 15.0)]
    return _fit(("omega_com", "n_bar"), model, mu, data, starts, lower=(0.0, 0.0))


def _fit_coupling(data: ScanDataset, name, gamma, tau, c=1.0, lower=None) -> FitResult:
    """Fit u in the precession lineshape with jbar = c u; c is 1.0 or one value per point.

    The starts come from the slope near theta1 = 0, P_up = (1 + 4 e^{-2 gamma tau} tau u x) / 2
    with x = c theta1, fitted over theta1 <= pi/2, or over every point when fewer than 2
    distinct x lie there; the sine argument wraps, so they probe a few scales around it.
    d P_up / d u is d P_up / d jbar times c.
    """
    theta1 = _abscissa(data, 2, "theta1 in rad")
    x = c * theta1
    if not x.min() < x.max():
        raise FitInputError("need at least 2 distinct theta1 values")
    mask = theta1 <= 0.5 * math.pi
    if not mask.any() or not x[mask].min() < x[mask].max():
        mask = np.ones(len(x), bool)
    u0 = np.polyfit(x[mask], data.p_up[mask], 1)[0] / (2.0 * math.exp(-2.0 * gamma * tau) * tau)
    c_col = np.reshape(c, (-1, 1))

    def model(theta1, p, jac=False):
        out = precession_lineshape(c * p[0], gamma, tau, theta1, jac=jac)
        return (out[0], out[1] * c_col) if jac else out

    return _fit((name,), model, theta1, data, [[u0], [0.5 * u0], [2.0 * u0], [0.0]], lower)


def fit_precession(data: ScanDataset, gamma: float, tau: float) -> FitResult:
    """Single-parameter fit of the mean-field precession lineshape for jbar."""
    return _fit_coupling(data, "j_bar", gamma, tau)


def fit_f0_sq(scans, gamma: float, tau: float, cfg: TrapIonConfig, deltas) -> FitResult:
    """Joint fit of u = F0^2 >= 0 to one precession scan per detuning in deltas.

    Scan k's lineshape has jbar = c_k u, with c_k = interactions.j_bar(1, cfg,
    delta_k), so every jbar has its detuning's sign; d P_up / d u is
    d P_up / d jbar times c_k, which is never 0.  F0 is sqrt(u).
    """
    scans, deltas = list(scans), list(deltas)
    if not scans or len(scans) != len(deltas):
        raise FitInputError(f"need one detuning per scan, got {len(scans)} scans "
                            f"and {len(deltas)} detunings")
    data = ScanDataset(*(np.concatenate([getattr(s, name) for s in scans])
                         for name in ("abscissa", "p_up", "sigma")))
    c = np.concatenate([np.full(len(s), j_bar(1.0, cfg, d)) for s, d in zip(scans, deltas)])
    return _fit_coupling(data, "f0_sq", gamma, tau, c, lower=(0.0,))


def fit_far_detuned_gamma(data: ScanDataset) -> FitResult:
    """Fit the far-detuned decoherence decay P_up(tau) = (1 - e^{-2 Gamma tau}) / 2."""
    tau = _abscissa(data, 2, "tau in s")

    def model(tau, p, jac=False):
        return gamma_decay_lineshape(p[0], tau, jac=jac)

    if not tau.min() < tau.max():
        raise FitInputError("need at least 2 distinct tau values")
    # linearize: -ln(1 - 2 P) = 2 Gamma tau
    z = -np.log(np.clip(1.0 - 2.0 * data.p_up, 1e-6, None))
    start = (max(float(np.polyfit(tau, z, 1)[0]) / 2.0, 0.0),)
    return _fit(("gamma",), model, tau, data, [start], lower=(0.0,))
