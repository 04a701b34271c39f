"""Physical constants (CODATA 2018).

Internally everything is SI base units with angular frequencies in rad/s.
Files and the command line speak ordinary frequencies (Hz), degrees and
yoctonewtons; configio and cli convert at that boundary.
"""

import math

HBAR = 1.054571817e-34  # J s
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg

TWO_PI = 2.0 * math.pi
