"""Exact-arithmetic Hurwitz numbers, the Lambert-curve recursion, and Hodge
integrals via the quantized loop-group action.

Everything is computed over exact rationals; the headline verifications
(polynomiality of the scaled Hurwitz numbers, the kernel-residue recursion,
and the equality of fitted coefficients with Hodge integrals) are exposed
both as a library and through the ``hurwitzlab`` command-line tool.
"""

__version__ = "0.1.0"

from .rationals import bernoulli, pochhammer
from .series import Series, zeta_series
from .multipoly import MultiPoly
from .partitions import (
    central_character_f2,
    dim_hook,
    enumerate_partitions,
    mn_character,
    z_aut,
)
from .hurwitz import (
    HurwitzTable,
    branch_count,
    cut_and_join_evolve,
    fit_P_polynomial,
    h_bruteforce,
    h_connected,
)

__all__ = [
    "__version__",
    "bernoulli",
    "pochhammer",
    "Series",
    "zeta_series",
    "MultiPoly",
    "central_character_f2",
    "dim_hook",
    "enumerate_partitions",
    "mn_character",
    "z_aut",
    "HurwitzTable",
    "branch_count",
    "cut_and_join_evolve",
    "fit_P_polynomial",
    "h_bruteforce",
    "h_connected",
]
