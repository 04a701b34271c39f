"""Spin-motion physics: force magnitude, coupling, loop phases, lineshapes.

The spin-dependent force on the COM mode has magnitude

    F0 = hbar |delta_ac| delta_k exp(-delta_k^2 <z^2> / 2),

the exponential being the Debye-Waller suppression from the thermal
wavepacket extent.  Off resonance by delta = mu - omega_com, the drive
pushes the mode around a phase-space loop; per arm of duration tau the
spin-dependent displacement and enclosed (geometric) phase are

    alpha_arm = (F0 z0 / (2 hbar delta)) (1 - e^{i delta tau})
    chi_arm   = (F0 z0 / (2 hbar))^2 (tau - sin(delta tau)/delta) / delta

and the spin-echo pi pulse flips the drive sign for the second arm, so
alpha_total = alpha_arm (1 - e^{i delta tau}) closes exactly whenever
delta tau is a multiple of 2 pi.  At loop closure chi_arm / tau equals
half the uniform Ising coupling

    jbar = F0^2 / (4 hbar M omega_com delta),

which fixes the convention: jbar = 2 chi_arm / tau (regression-tested
against a numerical phase-space-trajectory oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .core import OdfDrive, ThermalState, TrapIonConfig, detuning, ground_state_extent, thermal_extent_sq
from .geometry import BeamGeometry, delta_k

# chi_arm / tau = jbar / 2 at loop closure (delta tau = 2 pi k); see module docstring
CHI_TO_JBAR = 2.0


class ResonanceSingularityError(ValueError):
    """Operation requires a nonzero detuning."""


@dataclass(frozen=True)
class InteractionStrengths:
    f0: float | np.ndarray  # N
    debye_waller: float | np.ndarray  # dimensionless, in (0, 1]
    lamb_dicke: float | np.ndarray  # dimensionless, delta_k * z0
    j_bar: float | np.ndarray | None = None  # rad/s; None exactly on resonance
    f0_over_gamma: float | np.ndarray | None = None  # N s; None when gamma = 0


@dataclass(frozen=True)
class LoopPhases:
    alpha_total: complex | np.ndarray  # net displacement after the sequence, phase-space quanta
    chi_arm: float | np.ndarray  # rad, geometric phase accumulated per arm


def _q(s):
    """(2 - 2 cos s) / s^2, series-protected near s = 0."""
    s = np.asarray(s, dtype=float)
    small = np.abs(s) < 1e-2
    ss = np.where(small, 1.0, s)
    exact = (2.0 - 2.0 * np.cos(ss)) / (ss * ss)
    s2 = s * s
    series = 1.0 - s2 / 12.0 + s2 * s2 / 360.0 - s2 * s2 * s2 / 20160.0
    return np.where(small, series, exact)


def _dq(s):
    """d/ds of _q."""
    s = np.asarray(s, dtype=float)
    small = np.abs(s) < 1e-2
    ss = np.where(small, 1.0, s)
    exact = (2.0 * ss * np.sin(ss) - 4.0 + 4.0 * np.cos(ss)) / (ss ** 3)
    s2 = s * s
    series = -s / 6.0 + s * s2 / 90.0 - s * s2 * s2 / 3360.0
    return np.where(small, series, exact)


def _r(s):
    """(1 - sin(s)/s) / s, series-protected near s = 0."""
    s = np.asarray(s, dtype=float)
    small = np.abs(s) < 1e-2
    ss = np.where(small, 1.0, s)
    exact = (1.0 - np.sin(ss) / ss) / ss
    s2 = s * s
    series = s / 6.0 - s * s2 / 120.0 + s * s2 * s2 / 5040.0
    return np.where(small, series, exact)


def _dr(s):
    """d/ds of _r."""
    s = np.asarray(s, dtype=float)
    small = np.abs(s) < 1e-2
    ss = np.where(small, 1.0, s)
    exact = -1.0 / (ss * ss) - np.cos(ss) / (ss * ss) + 2.0 * np.sin(ss) / (ss ** 3)
    s2 = s * s
    series = 1.0 / 6.0 - s2 / 40.0 + s2 * s2 / 1008.0
    return np.where(small, series, exact)


def _math_exp(x):
    """math.exp, elementwise when x is an array.

    np.exp differs from math.exp by 1 ulp at some arguments; mapping
    math.exp keeps array results equal to the scalar ones bit for bit.
    """
    if not isinstance(x, np.ndarray):
        return math.exp(x)
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def force_magnitude(
    geom: BeamGeometry,
    drive: OdfDrive,
    cfg: TrapIonConfig,
    state: ThermalState,
) -> InteractionStrengths:
    """Evaluate F0 and the derived coupling figures at each angle of geom."""
    dk = delta_k(geom)
    z0 = ground_state_extent(cfg)
    zsq = thermal_extent_sq(cfg, state)
    dw = _math_exp(-0.5 * dk * dk * zsq)
    f0 = HBAR * abs(drive.delta_ac) * dk * dw
    delta = detuning(drive, cfg)
    jb = j_bar(f0, cfg, delta) if delta != 0.0 else None
    ratio = f0 / drive.gamma if drive.gamma > 0 else None
    return InteractionStrengths(
        f0=f0,
        debye_waller=dw,
        lamb_dicke=dk * z0,
        j_bar=jb,
        f0_over_gamma=ratio,
    )


def j_bar(f0: float | np.ndarray, cfg: TrapIonConfig, delta: float) -> float | np.ndarray:
    """Uniform pairwise Ising coupling F0^2 / (4 hbar M omega_com delta), rad/s."""
    if delta == 0.0:
        raise ResonanceSingularityError("j_bar diverges at delta = 0")
    return f0 * f0 / (4.0 * HBAR * cfg.ion_mass * cfg.omega_com * delta)


def loop_phases(
    f0: float | np.ndarray,
    cfg: TrapIonConfig,
    delta: float,
    tau: float,
    sequence: str = "spin_echo",
) -> LoopPhases:
    """Spin-dependent displacement and geometric phase of the driven COM mode.

    f0 is a force or an array of forces; delta and tau are scalars.
    sequence is "single_arm" (one drive period tau) or "spin_echo" (two
    arms with the drive sign flipped by the central pi pulse).  delta = 0
    is handled by the analytic limits, not an error.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if sequence not in ("single_arm", "spin_echo"):
        raise ValueError(f"unknown sequence {sequence!r}")
    z0 = ground_state_extent(cfg)
    f = f0 * z0 / (2.0 * HBAR)  # rad/s
    s = delta * tau
    # (1 - e^{is}) / delta = tau (1 - e^{is}) / s with limit -i tau at s = 0
    if abs(s) < 1e-8:
        one_minus_eis_over_delta = tau * (-1j + s / 2.0 + 1j * s * s / 6.0)
    else:
        one_minus_eis_over_delta = (1.0 - np.exp(1j * s)) / delta
    alpha_total = f * one_minus_eis_over_delta  # the first arm
    if sequence == "spin_echo":
        # times (1 - e^{is}), written out: numpy's array complex product fuses
        # multiply-adds, so it can differ by 1 ulp from the scalar product
        echo = 1.0 - np.exp(1j * s)
        ar, ai = alpha_total.real, alpha_total.imag
        alpha_total = (ar * echo.real - ai * echo.imag) + 1j * (ar * echo.imag + ai * echo.real)
    chi = f * f * tau ** 2 * _r(s)
    return LoopPhases(alpha_total=alpha_total, chi_arm=chi)


def thermometry_model(mu, omega_com, n_bar, geom: BeamGeometry, drive: OdfDrive,
                      cfg: TrapIonConfig, jac=False):
    """Spin-echo thermometry P_up(mu) as a function of (omega_com, n_bar).

    P_up = (1 - e^{-2 Gamma tau} C_ss C_sm) / 2 with
    C_ss = cos(4 J)^(N-1), J the per-arm geometric phase, and
    C_sm = exp(-2 |alpha_total|^2 (2 nbar + 1)).  omega_com enters through
    the detuning and the wavepacket size z0, n_bar through C_sm and the
    Debye-Waller factor.  With jac=True also returns the analytic
    d P_up / d (omega_com, n_bar), shape (n, 2).
    """
    dk = delta_k(geom)
    tau = drive.tau
    z0sq = HBAR / (2.0 * cfg.ion_mass * omega_com)
    eta_sq = dk * dk * z0sq
    e_dw = 0.5 * eta_sq * (2.0 * n_bar + 1.0)
    # drive scale f = F0 z0 / (2 hbar) = |delta_ac| dk z0 W / 2
    f = abs(drive.delta_ac) * dk * math.sqrt(z0sq) * math.exp(-e_dw) / 2.0
    delta = np.asarray(mu, dtype=float) - omega_com
    s = delta * tau
    q, r = _q(s), _r(s)
    asq = f * f * delta * delta * tau ** 4 * q * q
    j = f * f * tau ** 2 * r
    n = cfg.n_ions
    cos4j = np.cos(4.0 * j)
    c_ss = cos4j ** (n - 1)
    c_sm = np.exp(-2.0 * asq * (2.0 * n_bar + 1.0))
    baseline = math.exp(-2.0 * drive.gamma * tau)
    p_up = 0.5 * (1.0 - baseline * c_ss * c_sm)
    if not jac:
        return p_up
    dq, dr = _dq(s), _dr(s)
    # drive-scale sensitivities: f ~ W(omega, nbar) z0(omega)
    f_w = f * (e_dw - 0.5) / omega_com
    f_n = -eta_sq * f
    # d s / d omega = -tau (through delta)
    asq_w = 2.0 * f * f_w * delta ** 2 * tau ** 4 * q * q \
        - f * f * tau ** 4 * (2.0 * delta * q * q + 2.0 * delta ** 2 * q * dq * tau)
    asq_n = 2.0 * f * f_n * delta ** 2 * tau ** 4 * q * q
    j_w = 2.0 * f * f_w * tau ** 2 * r - f * f * tau ** 3 * dr
    j_n = 2.0 * f * f_n * tau ** 2 * r
    dcss = -4.0 * (n - 1) * cos4j ** (n - 2) * np.sin(4.0 * j)
    c_sm_w = c_sm * (-2.0 * (2.0 * n_bar + 1.0) * asq_w)
    c_sm_n = c_sm * (-2.0 * (2.0 * n_bar + 1.0) * asq_n - 4.0 * asq)
    dp_w = -0.5 * baseline * (dcss * j_w * c_sm + c_ss * c_sm_w)
    dp_n = -0.5 * baseline * (dcss * j_n * c_sm + c_ss * c_sm_n)
    return p_up, np.column_stack([dp_w, dp_n])


def thermometry_lineshape(
    geom: BeamGeometry,
    drive: OdfDrive,
    cfg: TrapIonConfig,
    state: ThermalState,
    mu_grid,
) -> np.ndarray:
    """Bright-state population P_up(mu) of the spin-echo thermometry scan.

    thermometry_model at the configured omega_com and the state's n_bar.
    """
    return thermometry_model(mu_grid, cfg.omega_com, state.n_bar, geom, drive, cfg)


def precession_lineshape(j_bar: float, gamma: float, tau: float, theta1_grid) -> np.ndarray:
    """Mean-field precession P_up(theta1) of the tipping-angle scan.

    P_up = (1 + e^{-2 Gamma tau} sin(theta1) sin(2 jbar cos(theta1) 2 tau)) / 2.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    theta1 = np.asarray(theta1_grid, dtype=float)
    baseline = math.exp(-2.0 * gamma * tau)
    return 0.5 * (1.0 + baseline * np.sin(theta1) * np.sin(4.0 * j_bar * tau * np.cos(theta1)))


def gamma_decay_lineshape(gamma: float, tau_grid) -> np.ndarray:
    """Far-detuned decoherence decay P_up(tau) = (1 - e^{-2 Gamma tau}) / 2."""
    return 0.5 * (1.0 - np.exp(-2.0 * gamma * np.asarray(tau_grid, dtype=float)))


def force_turnover_angle(
    cfg: TrapIonConfig,
    state: ThermalState,
    laser_wavelength: float = 313.1e-9,
) -> float:
    """Angle theta* where dF0/dtheta = 0, or nan when F0 is monotone below pi.

    With x = sin(theta/2), F0 is proportional to x exp(-a x^2) with
    a = 2 k0^2 z0^2 (2 nbar + 1), so the turnover sits at x = 1/sqrt(2 a).
    """
    k0 = 2.0 * math.pi / laser_wavelength
    z0 = ground_state_extent(cfg)
    a = 2.0 * k0 * k0 * z0 * z0 * (2.0 * state.n_bar + 1.0)
    x_star = 1.0 / math.sqrt(2.0 * a)
    if x_star >= 1.0:
        return math.nan
    return 2.0 * math.asin(x_star)
