"""Finite-field harmonic analysis lab: restriction constants, Kakeya maximal
bounds, and the exact Fourier identities behind them, at desk scale."""

__version__ = "0.1.0"

from .field import Field, make_field
from .grid import Grid, Side, fourier_forward, fourier_inverse, lp_norm, convolve, parseval_defect

__all__ = [
    "Field",
    "make_field",
    "Grid",
    "Side",
    "fourier_forward",
    "fourier_inverse",
    "lp_norm",
    "convolve",
    "parseval_defect",
    "__version__",
]
