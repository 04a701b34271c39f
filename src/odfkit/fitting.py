"""Weighted least-squares estimation and the beam-angle design optimizer.

The three measurement models (thermometry scan, tipping-angle precession,
far-detuned decoherence decay) are wrapped as small estimator objects with
the scikit-learn fit/predict/get_params surface, all driven by one damped
Gauss-Newton engine with analytic Jacobians; the models themselves live in
`interactions`, shared with the simulators.  Parameter uncertainties come
from the inverse normal equations at the optimum: FitResult.sigmas are
always scaled by sqrt(chi2_reduced) when it exceeds one (the conservative
convention), and FitResult.sigmas_unscaled hold the raw values.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, TWO_PI
from .core import OdfDrive, ThermalState, TrapIonConfig
from .geometry import BeamGeometry
from .interactions import (
    force_magnitude,
    gamma_decay_lineshape,
    precession_lineshape,
    thermometry_model,
)
from .simulate import ScanDataset


class FitInputError(ValueError):
    """Dataset or configuration unusable for the requested fit."""


@dataclass(frozen=True)
class FitResult:
    params: dict  # name -> fitted value
    sigmas: dict  # name -> 1-sigma uncertainty, times sqrt(chi2_reduced) when that exceeds 1
    sigmas_unscaled: dict  # name -> 1-sigma uncertainty from the inverse normal equations
    chi2_reduced: float
    converged: bool
    iterations: int
    covariance: np.ndarray
    flags: tuple = ()

    def __post_init__(self):
        if any(s < 0 for s in self.sigmas.values() if math.isfinite(s)):
            raise ValueError("sigmas must be >= 0")


@dataclass(frozen=True)
class F0Estimate:
    f0: float  # N
    sigma: float  # N
    per_detuning: tuple  # of (delta, f0, sigma)


def _damped_gauss_newton(
    predict,
    jacobian,
    y,
    sigma,
    p0,
    lower=None,
    max_iter=200,
    rel_step_tol=1e-10,
    rel_cost_tol=1e-12,
):
    """Levenberg-style damped Gauss-Newton on weighted residuals.

    predict(p) -> model values; jacobian(p) -> (n, k) model derivatives.
    lower is an optional per-parameter lower bound enforced by projection.
    Returns (p, converged, iterations, jtj, cost, bound_flags).
    """
    y = np.asarray(y, float)
    w = 1.0 / np.asarray(sigma, float)
    p = np.array(p0, float)
    lam = 1e-3
    r = (y - predict(p)) * w
    cost = 0.5 * float(r @ r)
    converged = False
    it = 0
    bound_active = np.zeros(len(p), bool)
    for it in range(1, max_iter + 1):
        jac = jacobian(p) * w[:, None]
        jtj = jac.T @ jac
        g = jac.T @ r
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
            r_new = (y - predict(p_new)) * w
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        lam = max(lam / 3.0, 1e-14)
        rel_step = np.linalg.norm(step) / (np.linalg.norm(p_new) + 1e-300)
        rel_drop = (cost - cost_new) / max(cost, 1e-300)
        p, r, cost = p_new, r_new, cost_new
        if lower is not None:
            bound_active = p <= lower + 1e-300
        if rel_step < rel_step_tol or rel_drop < rel_cost_tol:
            converged = True
            break
    jac = jacobian(p) * w[:, None]
    jtj = jac.T @ jac
    return p, converged, it, jtj, cost, bound_active


def _build_result(names, p, converged, it, jtj, cost, n_points, bound_active):
    k = len(names)
    dof = max(n_points - k, 1)
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
    if bound_active.any():
        flags.append("bound_active")
    return FitResult(
        params=dict(zip(names, (float(v) for v in p))),
        sigmas=dict(zip(names, (float(s * scale) for s in sig_raw))),
        sigmas_unscaled=dict(zip(names, (float(s) for s in sig_raw))),
        chi2_reduced=chi2_red,
        converged=bool(converged),
        iterations=it,
        covariance=cov * scale * scale,
        flags=tuple(flags),
    )


class _Estimator:
    """fit/predict/get_params skeleton shared by the measurement models.

    A subclass names its fitted parameters, their lower bounds (or None)
    and the fewest points it accepts, and defines predict(x, params),
    jacobian(x, params) and _starts(x, y), the candidate initial points.
    fit() starts the damped Gauss-Newton engine from the candidate with
    the lowest cost.  The dataset abscissa times abscissa_scale is x.
    """

    names = ()
    lower = None
    min_points = 1
    abscissa_scale = 1.0

    def get_params(self):
        """Constructor arguments by name, read from the __init__ signature."""
        init = inspect.signature(type(self).__init__).parameters
        return {name: getattr(self, name) for name in init if name != "self"}

    def set_params(self, **params):
        known = self.get_params()
        for name, value in params.items():
            if name not in known:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def _fitted(self):
        if not hasattr(self, "result_"):
            raise FitInputError("estimator is not fitted")
        return tuple(self.result_.params[name] for name in self.names)

    def fit(self, dataset: ScanDataset):
        if len(dataset) < self.min_points:
            raise FitInputError(f"need at least {self.min_points} points, got {len(dataset)}")
        x = self.abscissa_scale * dataset.abscissa
        y, sig = dataset.p_up, dataset.sigma

        def cost_at(p):
            res = (y - self.predict(x, p)) / sig
            return float(res @ res)

        start = min(self._starts(x, y), key=cost_at)
        lower = None if self.lower is None else np.array(self.lower, float)
        p, converged, it, jtj, cost, bounds = _damped_gauss_newton(
            lambda p: self.predict(x, p),
            lambda p: self.jacobian(x, p),
            y, sig, start, lower=lower,
        )
        self.result_ = _build_result(self.names, p, converged, it, jtj, cost,
                                     len(y), bounds)
        return self


class ThermometryEstimator(_Estimator):
    """Fit the spin-echo thermometry lineshape for (omega_com, n_bar).

    Gamma, the ion number, and the force-determining inputs (geometry and
    |delta_ac|) are fixed externally; see interactions.thermometry_model.
    The dataset abscissa is mu/2pi in Hz; predict and jacobian take mu.
    """

    names = ("omega_com", "n_bar")
    lower = (0.0, 0.0)
    min_points = 6  # enough to span the resonance
    abscissa_scale = TWO_PI

    def __init__(self, geom: BeamGeometry, drive: OdfDrive, cfg: TrapIonConfig,
                 init_omega_com=None, init_n_bar=5.0):
        self.geom = geom
        self.drive = drive
        self.cfg = cfg
        self.init_omega_com = init_omega_com
        self.init_n_bar = init_n_bar

    def predict(self, mu, params=None):
        omega, n_bar = params if params is not None else self._fitted()
        return thermometry_model(mu, omega, n_bar, self.geom, self.drive, self.cfg)

    def jacobian(self, mu, params):
        """Analytic d P_up / d (omega_com, n_bar), shape (n, 2)."""
        omega, n_bar = params
        return thermometry_model(mu, omega, n_bar, self.geom, self.drive, self.cfg,
                                 jac=True)[1]

    def _starts(self, mu, p_up):
        """Cheap multi-start grid: resonance from the lobe centroid."""
        weight = np.clip(p_up - p_up.min(), 0.0, None)
        centroid = float((weight * mu).sum() / weight.sum()) if weight.sum() > 0 else float(mu.mean())
        peak = float(mu[np.argmax(p_up)])
        half_lobe = math.pi / self.drive.tau
        omegas = [centroid, peak, peak - half_lobe, peak + half_lobe]
        if self.init_omega_com is not None:
            omegas.insert(0, self.init_omega_com)
        nbars = [self.init_n_bar, 1.0, 15.0]
        return [(w, n) for w in omegas for n in nbars]


class PrecessionEstimator(_Estimator):
    """Single-parameter fit of the mean-field precession lineshape for jbar."""

    names = ("j_bar",)
    min_points = 2

    def __init__(self, gamma: float, tau: float, init_j_bar=None):
        self.gamma = gamma
        self.tau = tau
        self.init_j_bar = init_j_bar

    def predict(self, theta1, params=None):
        (j_bar,) = params if params is not None else self._fitted()
        return precession_lineshape(j_bar, self.gamma, self.tau, theta1)

    def jacobian(self, theta1, params):
        (j_bar,) = params
        theta1 = np.asarray(theta1, float)
        baseline = math.exp(-2.0 * self.gamma * self.tau)
        dp = 0.5 * baseline * np.sin(theta1) \
            * np.cos(4.0 * j_bar * self.tau * np.cos(theta1)) \
            * 4.0 * self.tau * np.cos(theta1)
        return dp[:, None]

    def _starts(self, theta1, p_up):
        if self.init_j_bar is not None:
            j0 = self.init_j_bar
        else:
            # slope of P_up near theta1 = 0: dP/dtheta1 -> 2 baseline jbar tau
            if len(np.unique(theta1)) < 2:
                raise FitInputError("need at least 2 distinct theta1 values")
            mask = theta1 <= 0.5 * math.pi
            if len(np.unique(theta1[mask])) < 2:
                mask = np.ones(len(theta1), bool)
            slope = np.polyfit(theta1[mask], p_up[mask], 1)[0]
            j0 = slope / (2.0 * math.exp(-2.0 * self.gamma * self.tau) * self.tau)
        # the sine argument wraps; probe a few scales around the slope init
        return ([j0], [0.5 * j0], [2.0 * j0], [0.0])


class GammaDecayEstimator(_Estimator):
    """Fit the far-detuned decoherence decay P_up(tau) = (1 - e^{-2 Gamma tau}) / 2."""

    names = ("gamma",)
    lower = (0.0,)
    min_points = 2

    def __init__(self, init_gamma=None):
        self.init_gamma = init_gamma

    def predict(self, tau, params=None):
        (gamma,) = params if params is not None else self._fitted()
        return gamma_decay_lineshape(gamma, tau)

    def jacobian(self, tau, params):
        (gamma,) = params
        tau = np.asarray(tau, float)
        return (tau * np.exp(-2.0 * gamma * tau))[:, None]

    def _starts(self, tau, p_up):
        if self.init_gamma is not None:
            return [(self.init_gamma,)]
        if len(np.unique(tau)) < 2:
            raise FitInputError("need at least 2 distinct tau values")
        # linearize: -ln(1 - 2 P) = 2 Gamma tau
        z = -np.log(np.clip(1.0 - 2.0 * p_up, 1e-6, None))
        return [(max(float(np.polyfit(tau, z, 1)[0]) / 2.0, 0.0),)]


# -- functional wrappers ----------------------------------------------------


def fit_thermometry(data: ScanDataset, geom: BeamGeometry, drive: OdfDrive,
                    cfg: TrapIonConfig, init_omega_com=None, init_n_bar=5.0) -> FitResult:
    est = ThermometryEstimator(geom, drive, cfg, init_omega_com=init_omega_com,
                               init_n_bar=init_n_bar)
    return est.fit(data).result_


def fit_precession(data: ScanDataset, gamma: float, tau: float,
                   init_j_bar=None) -> FitResult:
    return PrecessionEstimator(gamma, tau, init_j_bar=init_j_bar).fit(data).result_


def fit_far_detuned_gamma(data: ScanDataset, init_gamma=None) -> FitResult:
    return GammaDecayEstimator(init_gamma=init_gamma).fit(data).result_


def f0_from_jbar(j_bar: float, sigma_j: float, cfg: TrapIonConfig,
                 delta: float) -> tuple[float, float]:
    """Invert jbar = F0^2 / (4 hbar M omega_com delta) with first-order errors."""
    if j_bar * delta <= 0:
        raise FitInputError("j_bar and delta must have the same (nonzero) sign")
    f0 = math.sqrt(4.0 * HBAR * cfg.ion_mass * cfg.omega_com * delta * j_bar)
    sigma_f0 = f0 * sigma_j / (2.0 * j_bar)
    return f0, sigma_f0


def weighted_f0(estimates) -> F0Estimate:
    """Inverse-variance weighted mean of (delta, F0, sigma) entries."""
    entries = tuple(estimates)
    if not entries:
        raise FitInputError("need at least one F0 estimate")
    if any(s <= 0 for _, _, s in entries):
        raise FitInputError("all sigmas must be > 0")
    weights = np.array([1.0 / (s * s) for _, _, s in entries])
    values = np.array([f for _, f, _ in entries])
    mean = float((weights * values).sum() / weights.sum())
    sigma = float(math.sqrt(1.0 / weights.sum()))
    return F0Estimate(f0=mean, sigma=sigma, per_detuning=entries)


# -- design optimizer --------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, a, b, tol=1e-8):
    """Maximize a unimodal f on [a, b]; returns (x*, f(x*))."""
    if not a < b:
        raise ValueError("need a < b")
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimize_theta(cfg: TrapIonConfig, drive: OdfDrive, state: ThermalState,
                   constraints=(math.radians(12.0), math.radians(36.0)),
                   laser_wavelength: float = 313.1e-9,
                   hard_limits=(math.radians(12.0), math.radians(36.0)),
                   ) -> tuple[float, float]:
    """Maximize F0(theta)/Gamma over the constraint window by golden section.

    F0/Gamma is unimodal in theta (force rises with delta_k until the
    Debye-Waller rolloff); maxima at a constraint are returned as the
    boundary value.
    """
    lo, hi = constraints
    if not lo < hi:
        raise FitInputError("constraint window is empty")
    if lo < hard_limits[0] - 1e-12 or hi > hard_limits[1] + 1e-12:
        raise FitInputError(
            f"window [{math.degrees(lo):.2f}, {math.degrees(hi):.2f}] deg outside the "
            f"mechanical limits [{math.degrees(hard_limits[0]):.1f}, "
            f"{math.degrees(hard_limits[1]):.1f}] deg"
        )
    if drive.gamma <= 0:
        raise FitInputError("gamma must be > 0")

    def ratio(theta):
        geom = BeamGeometry(theta_odf=theta, laser_wavelength=laser_wavelength)
        return force_magnitude(geom, drive, cfg, state).f0 / drive.gamma

    theta_star, best = golden_section_max(ratio, lo, hi, tol=1e-9)
    # snap to a boundary when the optimum sits on it
    for edge in (lo, hi):
        if ratio(edge) >= best:
            theta_star, best = edge, ratio(edge)
    return theta_star, best
