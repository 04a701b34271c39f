"""Shared configuration types for the trap, the drive, and the thermal state.

The trap holds a planar crystal of N ions whose axial center-of-mass (COM)
mode at omega_com is the motional bus for the spin-dependent optical dipole
force.  The ground-state wavepacket size z0 = sqrt(hbar / (2 M omega_com))
and its thermal extension <z^2> = z0^2 (2 nbar + 1) set the Debye-Waller
suppression of the force, so they live here alongside the types.

`Record` is the base of every odfkit configuration and result type: a
frozen record of named fields that `replace` copies with changes and
`fields` lists.  It generates no code, so defining a record type costs
no `exec` at import.
"""

from __future__ import annotations

import math

from .constants import HBAR


class Record:
    """A frozen record of named fields.

    A subclass declares its fields, in order, as class annotations, and a
    field's default as the class attribute of the same name; a dict default
    is copied for each record, so no two records share it.  A record is
    built from its fields by position or keyword, then runs __post_init__,
    which checks them.  Assigning or deleting an attribute raises
    AttributeError.  Records of one type are equal when their field tuples
    are, hash as that tuple, and print as Name(field=value, ...).
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, got {len(args)} by position")
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields or key in values:
                what = "an unknown" if key not in self._fields else "a second value for"
                raise TypeError(f"{name} got {what} field {key!r}")
            values[key] = value
        for key in self._fields:
            if key not in values:
                if key not in self._defaults:
                    raise TypeError(f"{name} is missing field {key!r}")
                default = self._defaults[key]
                values[key] = dict(default) if isinstance(default, dict) else default
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a record type with rules overrides this."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def fields(record) -> tuple:
    """The field names of a record or a record type, in order."""
    return record._fields


def replace(record, **changes):
    """A new record of record's type with the named fields changed; it is checked again."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


class TrapIonConfig(Record):
    """Physical substrate: ion species, COM mode and crystal size."""

    ion_mass: float  # kg
    omega_com: float  # rad/s
    n_ions: int
    crystal_radius: float  # m

    def __post_init__(self):
        if self.ion_mass <= 0:
            raise ValueError(f"ion_mass must be > 0, got {self.ion_mass}")
        if self.omega_com <= 0:
            raise ValueError(f"omega_com must be > 0, got {self.omega_com}")
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.crystal_radius < 0:
            raise ValueError(f"crystal_radius must be >= 0, got {self.crystal_radius}")


class ThermalState(Record):
    """Mean phonon occupation of the COM mode (proxy for effective temperature)."""

    n_bar: float

    def __post_init__(self):
        if not (math.isfinite(self.n_bar) and self.n_bar >= 0):
            raise ValueError(f"n_bar must be finite and >= 0, got {self.n_bar}")


class OdfDrive(Record):
    """Applied ODF interaction parameters.

    delta_ac is the AC-Stark coupling rate per beam pair (a calibration
    input, not derived from optical power), mu the beat frequency of the
    two beams, tau the per-arm duration of the spin-echo sequence, and
    gamma the total off-resonant scattering decoherence rate
    Gamma = (Gamma_Raman + Gamma_elastic) / 2; a config given the two
    parts composes it (configio.build_scenario).  No field has a default:
    load_config().drive, 2 kHz above the COM mode, is the configured one.
    """

    delta_ac: float  # rad/s
    mu: float  # rad/s
    tau: float  # s
    gamma: float  # 1/s

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def _checked(name: str, value):
    """value, unless it is a float that left the finite range: then an ArithmeticError.

    A scalar result computes in Python floats, whose * and / overflow to inf
    without a signal; an array passes unchecked (the commands run array
    arithmetic under np.errstate(..., "raise")).
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ArithmeticError(f"{name} evaluates to {value}")
    return value


def detuning(drive: OdfDrive, cfg: TrapIonConfig) -> float:
    """Signed detuning delta = mu - omega_com of the beat note from the COM mode."""
    return drive.mu - cfg.omega_com


def ground_state_extent(cfg: TrapIonConfig) -> float:
    """Ground-state wavepacket size z0 = sqrt(hbar / (2 M omega_com)) in meters."""
    return math.sqrt(HBAR / (2.0 * cfg.ion_mass * cfg.omega_com))


def thermal_extent_sq(cfg: TrapIonConfig, state: ThermalState) -> float:
    """Thermal mean-square axial extent <z^2> = z0^2 (2 nbar + 1) in m^2."""
    z0 = ground_state_extent(cfg)
    return _checked("the thermal extent <z^2>", z0 * z0 * (2.0 * state.n_bar + 1.0))
