"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with
different numerics than the library (direct ODE integration, Monte Carlo
averages, brute-force grids, explicit 3D vector construction) so that
agreement is meaningful.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34


def phase_space_trajectory(f, delta, tau, sequence="spin_echo", n_steps=8192):
    """Integrate d(alpha)/dt = -i delta alpha + f(t) with RK4.

    f is the drive scale F0 z0 / (2 hbar) in rad/s; the spin-echo pi pulse
    flips the drive sign for the second arm.  The geometric phase is
    accumulated alongside as d(chi)/dt = Im(conj(alpha) f).  Inputs may be
    arrays (vectorized elementwise).  Returns (|alpha_end|, chi_one_arm).
    """
    f = np.asarray(f, dtype=float)
    delta = np.asarray(delta, dtype=float)
    arms = (1.0, -1.0) if sequence == "spin_echo" else (1.0,)
    h = tau / n_steps
    alpha = np.zeros(np.broadcast(f, delta).shape, dtype=complex)
    chi_arm = np.zeros_like(alpha, dtype=float)
    for arm_index, sign in enumerate(arms):
        drive = sign * f

        def rhs(a):
            return -1j * delta * a + drive

        for _ in range(n_steps):
            k1 = rhs(alpha)
            k2 = rhs(alpha + 0.5 * h * k1)
            k3 = rhs(alpha + 0.5 * h * k2)
            k4 = rhs(alpha + h * k3)
            a_end = alpha + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if arm_index == 0:
                # Simpson quadrature of Im(conj(alpha) f) on the same stages
                g1 = np.imag(np.conj(alpha) * drive)
                g_mid = np.imag(np.conj(alpha + 0.5 * h * k2) * drive)
                g2 = np.imag(np.conj(a_end) * drive)
                chi_arm = chi_arm + (h / 6.0) * (g1 + 4.0 * g_mid + g2)
            alpha = a_end
    return np.abs(alpha), chi_arm


def mc_debye_waller(dk, z_var, n_samples=10_000_000, seed=12345):
    """Thermal average <cos(dk z)> over a Gaussian wavepacket of variance z_var."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples) * math.sqrt(z_var)
    return float(np.mean(np.cos(dk * z)))


def misalignment_phase_3d(theta_odf, laser_wavelength, tilt_error, radius):
    """Explicit 3D construction of k1, k2 and the in-plane beat-note phase.

    The difference wave vector points along a unit vector u tilted by
    tilt_error from the rotation axis z toward the crystal plane; the two
    beams sit symmetrically about the bisector b perpendicular to u.
    Returns the phase in degrees at in-plane distance `radius` along the
    tilt direction (the worst case).
    """
    k0 = TWO_PI / laser_wavelength
    u = np.array([math.sin(tilt_error), 0.0, math.cos(tilt_error)])
    b = np.array([math.cos(tilt_error), 0.0, -math.sin(tilt_error)])
    half = 0.5 * theta_odf
    k1 = k0 * (math.cos(half) * b + math.sin(half) * u)
    k2 = k0 * (math.cos(half) * b - math.sin(half) * u)
    dk_vec = k1 - k2
    pos = np.array([radius, 0.0, 0.0])  # in the crystal plane
    return math.degrees(abs(float(dk_vec @ pos)))


def grid_max(fun, lo, hi, n=10_000):
    """Brute-force grid maximization; returns (x*, f(x*))."""
    xs = np.linspace(lo, hi, n)
    ys = np.array([fun(x) for x in xs])
    i = int(np.argmax(ys))
    return float(xs[i]), float(ys[i])


def one_pole_lowpass(x, a):
    """y[i] = (1 - a) x[i] + a y[i-1], y[-1] = 0, as an explicit loop."""
    y = np.empty(len(x))
    prev = 0.0
    for i, xi in enumerate(x):
        prev = (1.0 - a) * float(xi) + a * prev
        y[i] = prev
    return y


def per_point_binomial(p_true, shots, seed):
    """Counts with a new Generator(Philox(key=seed, counter=[0, 0, 0, i])) per point."""
    counts = np.empty(len(p_true), dtype=np.int64)
    for i, p in enumerate(np.clip(p_true, 0.0, 1.0)):
        bitgen = np.random.Philox(key=np.uint64(seed % 2 ** 64), counter=[0, 0, 0, i])
        counts[i] = np.random.Generator(bitgen).binomial(shots, p)
    return counts


def per_sample_drift_probe(drift_deg, f0, z0, n_bar, gamma, tau):
    """P_up of the drift probe one sample at a time, in scalar arithmetic.

    The spin-echo displacement at the probe detuning delta = pi / tau,
    alpha = f (1 - e^{i s})^2 / delta with f = F0 |sin(dtheta)| z0 / (2 hbar),
    evaluated per sample with numpy complex scalars, then
    P_up = (1 - e^{-2 Gamma tau} exp(-2 |alpha|^2 (2 nbar + 1))) / 2.
    """
    delta = math.pi / tau
    s = delta * tau
    baseline = math.exp(-2.0 * gamma * tau)
    p = []
    for dtheta in drift_deg:
        f = f0 * abs(math.sin(math.radians(dtheta))) * z0 / (2.0 * HBAR)
        alpha = f * ((1.0 - np.exp(1j * s)) / delta) * (1.0 - np.exp(1j * s))
        p.append(0.5 * (1.0 - baseline * math.exp(-2.0 * abs(complex(alpha)) ** 2
                                                   * (2.0 * n_bar + 1.0))))
    return np.array(p)
