"""Ground-state entanglement of an ohmically dissipative two-level system.

The qubit + bath problem is solved through its anisotropic Kondo model
equivalent with Wilson's numerical renormalization group: logarithmic
discretization of the band, iterative diagonalization in conserved
(charge, spin-projection) sectors, and iterative propagation of the local
operators that yield the spin expectation values and the entropy of
entanglement.
"""

__version__ = "0.1.0"

from .chain import WilsonChain, build_chain
from .engine import (
    ConvergenceReport,
    EngineError,
    IterationState,
    NRGConfig,
    Sector,
    SectorBlock,
    add_site,
    init_impurity_site,
    run,
    truncate,
)
from .observables import (
    OperatorBlocks,
    entanglement_entropy,
    ground_expectation_raw,
    init_operator_blocks,
    propagate,
)
from .oracle import (
    FockBasis,
    build_basis,
    compare_with_nrg,
    exact_ground,
    hellmann_feynman_check,
)
from .params import (
    DomainError,
    KondoParams,
    SpinBosonPoint,
    map_to_kondo,
    noninteracting_reference,
    renormalized_tunneling,
)
from .sweep import (
    AlphaMaxResult,
    ObservableRecord,
    SweepSpec,
    find_alpha_max,
    preset,
    read_json_records,
    run_point,
    run_sweep,
    verify,
    write_output,
)

__all__ = [
    "AlphaMaxResult",
    "ConvergenceReport",
    "DomainError",
    "EngineError",
    "FockBasis",
    "IterationState",
    "KondoParams",
    "NRGConfig",
    "ObservableRecord",
    "OperatorBlocks",
    "Sector",
    "SectorBlock",
    "SpinBosonPoint",
    "SweepSpec",
    "WilsonChain",
    "add_site",
    "build_basis",
    "build_chain",
    "compare_with_nrg",
    "entanglement_entropy",
    "exact_ground",
    "find_alpha_max",
    "ground_expectation_raw",
    "hellmann_feynman_check",
    "init_impurity_site",
    "init_operator_blocks",
    "map_to_kondo",
    "noninteracting_reference",
    "preset",
    "propagate",
    "read_json_records",
    "renormalized_tunneling",
    "run",
    "run_point",
    "run_sweep",
    "truncate",
    "verify",
    "write_output",
]
