"""Beam-crossing geometry and in-bore actuator kinematics.

Two laser beams of equal wavelength cross at the ion crystal with full
separation angle theta_odf, symmetric about the crystal plane, producing a
difference wave vector of magnitude

    delta_k = 2 (2 pi / lambda) sin(theta_odf / 2)

ideally along the crystal rotation axis z.  Each beam reaches the crystal
off a mirror sitting on a rotary + linear piezo stack: rotating a mirror
by phi deflects its beam by 2 phi, and the linear stage slides the mirror
along the bore axis so the deflected beam still passes through trap
center.  The kinematic closure here maps actuator poses to theta_odf and
back, and propagates the stages' fixed repeatabilities to an angle error.
`MountGeometry` owns the mechanical angle window and the laser wavelength
that the angle design (interactions.optimize_theta) works in.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .constants import TWO_PI
from .core import Record, _checked

if TYPE_CHECKING:
    import numpy as np

# closed-loop repeatabilities of the rotary and linear stages of each mirror stack
ROTARY_REPEATABILITY_DEG = 0.0014
LINEAR_REPEATABILITY_M = 30e-9
ROTARY_TRAVEL_DEG = 50.0  # each rotary stage turns from -50 to +50 degrees


class GeometryInfeasibleError(ValueError):
    """Requested angle or pose is outside the mount's window, travel or crossing tolerance."""


class BeamGeometry(Record):
    """Everything that determines delta_k and its orientation.

    theta_odf may be an array of angles; delta_k and the interaction
    figures built on it are then evaluated elementwise.  A Python float
    angle (np.float64 among them) takes math, so scalar callers load no
    numpy.
    """

    theta_odf: float | np.ndarray  # rad, full separation angle of the two ODF beams
    laser_wavelength: float  # m
    tilt_error: float = 0.0  # rad, angle between delta_k and the rotation axis

    def __post_init__(self):
        theta = self.theta_odf
        if not isinstance(theta, (int, float)):
            import numpy as np  # an array angle: the caller has loaded numpy

            theta = np.ravel(theta)
            outside = theta[~((0.0 <= theta) & (theta < math.pi))]
            theta = outside[0] if outside.size else 0.0  # the first angle outside, if any
        if not 0.0 <= theta < math.pi:  # CLI angles are degrees: name both units
            raise ValueError(f"theta_odf must be in [0, 180) deg, got {math.degrees(theta):g} "
                             f"deg ({theta} rad)")
        if self.tilt_error < 0:
            raise ValueError(f"tilt_error must be >= 0, got {self.tilt_error}")
        if self.laser_wavelength <= 0:
            raise ValueError("laser_wavelength must be > 0")


class ActuatorState(Record):
    """Pose of one mirror stack.

    rotary_angle is the closed-loop rotary offset from the reference at
    which the reflected beam runs parallel to the bore axis; tip/tilt are
    the open-loop fine stages (tip moves the beam out of the crossing
    plane, tilt adds to the rotary offset).  angle_from_actuators bounds
    rotary_angle by ROTARY_TRAVEL_DEG and linear_pos by linear_travel.
    """

    rotary_angle: float = 0.0  # degrees
    linear_pos: float = 0.0  # m, along the bore axis, 0 at the outermost stop
    tip: float = 0.0  # degrees
    tilt: float = 0.0  # degrees


class MountGeometry(Record):
    """Fixed lever arms of the mirror stack relative to the ion crystal.

    d_axial is the mirror-to-ion distance along the bore axis when the
    linear stage sits at 0; d_radial is the lateral mirror offset from the
    axis.  Defaults are chosen so the 12-36 degree window fits inside the
    21 mm linear travel.  [theta_min, theta_max] bounds every pose and is
    the window optimize_theta searches unless given a narrower one;
    laser_wavelength is the beams' own (build_scenario copies it).
    """

    laser_wavelength: float  # m
    d_axial: float = 28.6e-3  # m
    d_radial: float = 3.0e-3  # m
    theta_min: float = math.radians(12.0)  # rad
    theta_max: float = math.radians(36.0)  # rad
    crossing_tolerance: float = 10e-6  # m
    linear_travel: float = 21e-3  # m

    def __post_init__(self):
        for name in ("d_axial", "d_radial", "linear_travel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.crossing_tolerance < 0:
            raise ValueError(f"crossing_tolerance must be >= 0, got {self.crossing_tolerance}")
        if not 0 < self.theta_min < self.theta_max < math.pi:
            raise ValueError(f"need 0 < theta_min < theta_max < 180 deg, got theta_min "
                             f"{math.degrees(self.theta_min)}, theta_max "
                             f"{math.degrees(self.theta_max)} deg")


def delta_k(geom: BeamGeometry) -> float | np.ndarray:
    """Difference wave vector magnitude |k1 - k2| in 1/m, per angle of geom.

    Both beams share one wavelength; the ~MHz beat shifts |k| by a
    relative 4e-9 and is neglected.
    """
    k0 = TWO_PI / geom.laser_wavelength
    if isinstance(geom.theta_odf, (int, float)):
        return _checked("delta_k", 2.0 * k0 * math.sin(0.5 * geom.theta_odf))
    import numpy as np

    return 2.0 * k0 * np.sin(0.5 * geom.theta_odf)


def effective_wavelength(geom: BeamGeometry) -> float:
    """Beat-note wavelength lambda_odf = 2 pi / delta_k in meters."""
    dk = delta_k(geom)
    if dk == 0.0:
        raise ValueError("theta_odf = 0: co-propagating beams, divergent wavelength")
    return _checked("lambda_odf", TWO_PI / dk)


def misalignment_phase(geom: BeamGeometry, radius: float) -> float:
    """Beat-note phase difference, in degrees, between crystal center and edge.

    A tilt of delta_k by tilt_error toward the crystal plane puts an
    in-plane component delta_k sin(tilt_error) on the lattice, hence a
    phase gradient across the crystal; at distance `radius` the phase is
    delta_k sin(tilt_error) radius.  The azimuthal direction of the tilt
    does not affect this scalar.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    phase_rad = delta_k(geom) * math.sin(geom.tilt_error) * radius
    return _checked("the phase at the crystal edge", math.degrees(phase_rad))


def _beam_half_angle(state: ActuatorState) -> float:
    """Half-angle of one beam w.r.t. the bore axis: 2x the mirror rotation."""
    return 2.0 * math.radians(state.rotary_angle + state.tilt)


def _crossing_miss(state: ActuatorState, mount: MountGeometry, half_angle: float) -> float:
    """Lateral distance by which the deflected beam misses trap center."""
    d = mount.d_axial - state.linear_pos
    if d <= 0:
        raise GeometryInfeasibleError("mirror would sit past the ion plane")
    return abs(mount.d_radial - d * math.tan(half_angle))


def angle_from_actuators(
    state: ActuatorState,
    mount: MountGeometry,
    second: ActuatorState | None = None,
) -> BeamGeometry:
    """Forward kinematics: mirror poses to the implied BeamGeometry.

    With `second` omitted the same pose is applied to both mirrors
    (symmetric pair).  Raises GeometryInfeasibleError when a rotary or
    linear stage sits outside its travel, a beam misses trap center by more
    than the crossing tolerance, or the implied angle falls outside the
    mechanical window.
    """
    states = (state, second if second is not None else state)
    halves = []
    for s in states:
        if not abs(s.rotary_angle) <= ROTARY_TRAVEL_DEG:
            raise GeometryInfeasibleError(f"rotary_angle {s.rotary_angle} outside the "
                                          f"{2 * ROTARY_TRAVEL_DEG:g} degree travel window")
        if not 0.0 <= s.linear_pos <= mount.linear_travel:
            raise GeometryInfeasibleError(
                f"linear_pos {s.linear_pos} m outside [0, {mount.linear_travel}] m travel")
        half = _beam_half_angle(s)
        miss = _crossing_miss(s, mount, half)
        if miss > mount.crossing_tolerance:
            raise GeometryInfeasibleError(
                f"beam misses trap center by {miss:.3e} m "
                f"(tolerance {mount.crossing_tolerance:.1e} m)"
            )
        halves.append(half)
    theta = sum(halves)
    if not mount.theta_min <= theta <= mount.theta_max:
        raise GeometryInfeasibleError(
            f"theta_odf {math.degrees(theta):.3f} deg outside the mechanical window "
            f"[{math.degrees(mount.theta_min):.1f}, {math.degrees(mount.theta_max):.1f}] deg"
        )
    # tip stages push the beams out of the crossing plane; to first order
    # delta_k tilts by the mean of the two out-of-plane deflections
    tilt = abs(2.0 * math.radians(states[0].tip) + 2.0 * math.radians(states[1].tip)) / 2.0
    return BeamGeometry(
        theta_odf=theta,
        laser_wavelength=mount.laser_wavelength,
        tilt_error=tilt,
    )


def actuators_for_angle(target_theta: float, mount: MountGeometry) -> ActuatorState:
    """Inverse kinematics: symmetric pose realizing a full separation angle.

    Returns the per-mirror state (apply it to both mirrors); round-trips
    through angle_from_actuators to better than 1e-9 rad.  Raises
    GeometryInfeasibleError when the angle is outside the mechanical window
    or its pose outside the linear travel.
    """
    if not mount.theta_min <= target_theta <= mount.theta_max:
        raise GeometryInfeasibleError(
            f"target {math.degrees(target_theta):.3f} deg outside "
            f"[{math.degrees(mount.theta_min):.1f}, {math.degrees(mount.theta_max):.1f}] deg"
        )
    half = 0.5 * target_theta
    rotary = math.degrees(half / 2.0)
    d_needed = mount.d_radial / math.tan(half)
    linear = mount.d_axial - d_needed
    if not 0.0 <= linear <= mount.linear_travel:
        raise GeometryInfeasibleError(
            f"required linear position {linear:.4e} m outside [0, {mount.linear_travel}] m"
        )
    return ActuatorState(rotary_angle=rotary, linear_pos=linear)


def repeatability_to_angle_error(mount: MountGeometry) -> float:
    """Worst-case theta_odf uncertainty, in radians, from the stage repeatabilities.

    Worst-case (not quadrature) sum: the rotary repeatability enters with
    a factor 2 per mirror for the mirror-to-beam deflection and once per
    mirror; the linear repeatability tilts the effective crossing by its
    angular equivalent at the d_axial lever arm.
    """
    rotary_term = 2.0 * 2.0 * math.radians(ROTARY_REPEATABILITY_DEG)
    linear_term = math.atan(LINEAR_REPEATABILITY_M / mount.d_axial)
    return rotary_term + linear_term
