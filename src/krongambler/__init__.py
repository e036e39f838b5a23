"""Multidimensional gambler's-ruin chains via Kronecker mixing.

Build absorbing game chains from one-dimensional birth-and-death components,
compute their winning probabilities and absorption-time laws, and cross-check
everything through Siegmund duality and spectral intertwining.
"""

from .absorption import (
    AbsorptionDist,
    absorb_dist,
    pgf_two_sided,
)
from .birth_death import (
    BirthDeathSpec,
    ErgodicBDSpec,
    bd_eigenvalues,
    bd_is_monotone,
    bd_matrix,
    bd_restricted,
    bd_stationary,
    bd_win_prob,
    siegmund_dual_1d,
)
from .errors import (
    CommunicationError,
    CouplingError,
    DegenerateSpectrumError,
    HorizonError,
    LinkPrecisionError,
    MonotonicityError,
    SizeError,
    SpecError,
    StochasticityError,
)
from .game import (
    AbsorbingChain,
    GameSpec,
    build_game,
    check_communication,
    linear_index,
    multi_index,
    preset_r_of_d,
)
from .intertwine import (
    SpectralLink,
    build_dual,
    classical_ssd_1d,
    dual_initial,
    spectral_link_1d,
)
from .pgf import GeometricProductPgf, ResolventPgf
from .siegmund import win_prob_product, win_prob_solve
from .simulate import SimConfig, SimReport, simulate, simulate_coupled

__version__ = "0.1.0"
