"""Spin-motion physics: force magnitude, coupling, lineshapes.

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

which fixes the convention: jbar = 2 chi_arm / tau.  `thermometry_model`
is the one implementation of alpha_total and chi_arm; the tests pin it to
an RK4 integration of the phase-space trajectory and, at loop closure, to
`j_bar`.

All three measurement lineshapes (`thermometry_model`,
`precession_lineshape`, `gamma_decay_lineshape`) carry their own
derivative: with jac=True each returns (P_up, d P_up / d params), the one
function that both the simulators sample and the fits evaluate, each
parameter point once with its derivative.  `_qr` takes the loop factors
and their derivatives from one cos and one sin.  The angle
design rule, `optimize_theta`, is the F0 turnover clipped to an angle
window, by default the mount's mechanical one.

The module loads no numpy: a float angle computes in math, so the design
commands run without it, and each function that takes arrays imports
numpy itself.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .constants import HBAR
from .core import (
    OdfDrive,
    Record,
    ThermalState,
    TrapIonConfig,
    _checked,
    detuning,
    ground_state_extent,
    thermal_extent_sq,
)
from .geometry import BeamGeometry, GeometryInfeasibleError, MountGeometry, delta_k

if TYPE_CHECKING:
    import numpy as np


class ResonanceSingularityError(ValueError):
    """Operation requires a nonzero detuning."""


class InteractionStrengths(Record):
    f0: float | np.ndarray  # N
    j_bar: float | np.ndarray | None = None  # rad/s; None exactly on resonance


def _qr(s, jac=False):
    """q = (2 - 2 cos s) / s^2 and r = (1 - sin(s)/s) / s, and with jac=True also dq/ds, dr/ds.

    Each is its Taylor series where |s| < 1e-2 and its closed form elsewhere,
    all four from one mask, one cos and one sin; the closed form gets s = 1.0
    on the series branch, and each series is evaluated on that branch alone.
    """
    import numpy as np

    s = np.asarray(s, dtype=float)
    if s.ndim == 0:  # a series value is written into its array by index
        return tuple(v.reshape(()) for v in _qr(s.reshape(1), jac))
    small = np.abs(s) < 1e-2
    t = s[small]
    t2 = t * t
    x = np.where(small, 1.0, s)
    cos, sin = np.cos(x), np.sin(x)
    q = (2.0 - 2.0 * cos) / (x * x)
    q[small] = 1.0 - t2 / 12.0 + t2 * t2 / 360.0 - t2 * t2 * t2 / 20160.0
    r = (1.0 - sin / x) / x
    r[small] = t / 6.0 - t * t2 / 120.0 + t * t2 * t2 / 5040.0
    if not jac:
        return q, r
    x3 = x ** 3
    dq = (2.0 * x * sin - 4.0 + 4.0 * cos) / x3
    dq[small] = -t / 6.0 + t * t2 / 90.0 - t * t2 * t2 / 3360.0
    dr = -1.0 / (x * x) - cos / (x * x) + 2.0 * sin / x3
    dr[small] = 1.0 / 6.0 - t2 / 40.0 + t2 * t2 / 1008.0
    return q, r, dq, dr


def _math_exp(x):
    """math.exp, elementwise when x is an array.

    np.exp differs from math.exp by 1 ulp at some arguments; mapping
    math.exp keeps array results equal to the scalar ones bit for bit.
    """
    if isinstance(x, (int, float)):
        return math.exp(x)
    import numpy as np

    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def force_magnitude(
    geom: BeamGeometry,
    drive: OdfDrive,
    cfg: TrapIonConfig,
    state: ThermalState,
) -> InteractionStrengths:
    """F0 and, off resonance, Jbar at each angle of geom; F0/Gamma is f0 / drive.gamma."""
    dk = delta_k(geom)
    zsq = thermal_extent_sq(cfg, state)
    exponent = _checked("the Debye-Waller exponent", -0.5 * dk * dk * zsq)
    f0 = _checked("F0", HBAR * abs(drive.delta_ac) * dk * _math_exp(exponent))
    delta = detuning(drive, cfg)
    jb = _checked("Jbar", j_bar(f0, cfg, delta)) if delta != 0.0 else None
    return InteractionStrengths(f0=f0, j_bar=jb)


def j_bar(f0: float | np.ndarray, cfg: TrapIonConfig, delta: float) -> float | np.ndarray:
    """Uniform pairwise Ising coupling F0^2 / (4 hbar M omega_com delta), rad/s."""
    if delta == 0.0:
        raise ResonanceSingularityError("j_bar diverges at delta = 0")
    return f0 * f0 / (4.0 * HBAR * cfg.ion_mass * cfg.omega_com * delta)


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
    import numpy as np

    dk = delta_k(geom)
    tau = drive.tau
    z0sq = HBAR / (2.0 * cfg.ion_mass * omega_com)
    eta_sq = dk * dk * z0sq
    e_dw = 0.5 * eta_sq * (2.0 * n_bar + 1.0)
    # drive scale f = F0 z0 / (2 hbar) = |delta_ac| dk z0 W / 2
    f = abs(drive.delta_ac) * dk * math.sqrt(z0sq) * math.exp(-e_dw) / 2.0
    delta = np.asarray(mu, dtype=float) - omega_com
    s = delta * tau
    q, r, *dq_dr = _qr(s, jac)
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
    dq, dr = dq_dr
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


def precession_lineshape(j_bar: float, gamma: float, tau: float, theta1_grid, jac=False):
    """Mean-field precession P_up(theta1) of the tipping-angle scan.

    P_up = (1 + e^{-2 Gamma tau} sin(theta1) sin(2 jbar cos(theta1) 2 tau)) / 2.
    j_bar is one value or one per theta1.  With jac=True also returns
    d P_up / d jbar, shape (n, 1).
    """
    import numpy as np

    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    theta1 = np.asarray(theta1_grid, dtype=float)
    baseline = math.exp(-2.0 * gamma * tau)
    sin_t, cos_t = np.sin(theta1), np.cos(theta1)
    p_up = 0.5 * (1.0 + baseline * sin_t * np.sin(4.0 * j_bar * tau * cos_t))
    if not jac:
        return p_up
    dp = 0.5 * baseline * sin_t * np.cos(4.0 * j_bar * tau * cos_t) * 4.0 * tau * cos_t
    return p_up, dp[:, None]


def gamma_decay_lineshape(gamma: float, tau_grid, jac=False):
    """Far-detuned decoherence decay P_up(tau) = (1 - e^{-2 Gamma tau}) / 2.

    With jac=True also returns d P_up / d Gamma, shape (n, 1).
    """
    import numpy as np

    tau = np.asarray(tau_grid, dtype=float)
    decay = np.exp(-2.0 * gamma * tau)
    p_up = 0.5 * (1.0 - decay)
    if not jac:
        return p_up
    return p_up, (tau * decay)[:, None]


def force_turnover_angle(cfg: TrapIonConfig, state: ThermalState, laser_wavelength: float) -> float:
    """Angle theta* where dF0/dtheta = 0, or nan when F0 is monotone below pi.

    With x = sin(theta/2), F0 is proportional to x exp(-a x^2) with
    a = 2 k0^2 z0^2 (2 nbar + 1), so the turnover sits at x = 1/sqrt(2 a).
    """
    k0 = 2.0 * math.pi / laser_wavelength
    z0 = ground_state_extent(cfg)
    a = 2.0 * k0 * k0 * z0 * z0 * (2.0 * state.n_bar + 1.0)
    if 2.0 * a <= 1.0:  # x_star >= 1, also where a underflows to 0
        return math.nan
    return 2.0 * math.asin(1.0 / math.sqrt(2.0 * a))


def optimize_theta(cfg: TrapIonConfig, drive: OdfDrive, state: ThermalState,
                   mount: MountGeometry, window=None) -> tuple[float, float]:
    """Maximize F0(theta)/Gamma over a window in rad; returns (theta, ratio).

    The window defaults to the mount's mechanical window, and a window that
    is empty or reaches outside it is infeasible; the beams have the mount's
    laser wavelength.  Gamma does not depend on theta, and F0 rises with
    delta_k up to the Debye-Waller turnover (force_turnover_angle) and falls
    after it, so the argmax is that turnover clipped to the window, or the
    upper edge when F0 is monotone.
    """
    lo, hi = (mount.theta_min, mount.theta_max) if window is None else window
    if not lo < hi:
        raise GeometryInfeasibleError("constraint window is empty")
    if lo < mount.theta_min - 1e-12 or hi > mount.theta_max + 1e-12:
        raise GeometryInfeasibleError(
            f"window [{math.degrees(lo):.2f}, {math.degrees(hi):.2f}] deg outside the "
            f"mechanical limits [{math.degrees(mount.theta_min):.1f}, "
            f"{math.degrees(mount.theta_max):.1f}] deg"
        )
    if drive.gamma <= 0:
        raise ValueError("gamma must be > 0")
    turnover = force_turnover_angle(cfg, state, mount.laser_wavelength)
    theta = hi if math.isnan(turnover) else min(max(turnover, lo), hi)
    geom = BeamGeometry(theta_odf=theta, laser_wavelength=mount.laser_wavelength)
    return theta, _checked("F0/Gamma", force_magnitude(geom, drive, cfg, state).f0 / drive.gamma)
