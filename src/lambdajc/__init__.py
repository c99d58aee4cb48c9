"""Numerical laboratory for a periodically modulated three-level lambda atom
coupled to two cavity modes: equilibrium and driven ground-state phase
diagrams from the dressed-state block spectrum, drive-renormalized model
parameters, and echo-based verification of the approximation chain."""

__version__ = "0.1.0"

from .config import ConfigError, RunConfig, config_hash, parse_config
from .dynamics import (
    EchoResult,
    EvolutionResult,
    HamiltonianSpec,
    HilbertSpace,
    PropagationError,
    StateVector,
    TruncationError,
    Variant,
    assemble_terms,
    build_space,
    coherent_state,
    evolve,
    loschmidt_echo,
)
from .effective import effective_point
from .params import DriveParams, SystemParams
from .specfun import bessel_j
from .spectrum import (
    CATEGORIES,
    AxisSpec,
    block_ground_energy,
    block_matrix,
    category_index,
    ground_search,
    locate_boundary,
    sweep_grid,
)
