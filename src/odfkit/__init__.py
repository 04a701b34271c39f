"""Toolkit for tunable coherent vs incoherent optical-dipole-force interactions
in planar Penning-trap ion crystals: beam geometry, coupling strengths,
experiment lineshapes, synthetic data, and parameter estimation.

The Python API is the modules (`odfkit.geometry`, `odfkit.interactions`,
`odfkit.simulate`, `odfkit.fitting`, ...); import each name from the module
that defines it.
"""

__version__ = "0.1.0"
