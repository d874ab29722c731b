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
    iterate,
    run,
)
from .observables import entanglement_entropy
from .oracle import compare_with_nrg, exact_ground, hellmann_feynman_check
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
    "IterationState",
    "KondoParams",
    "NRGConfig",
    "ObservableRecord",
    "SpinBosonPoint",
    "SweepSpec",
    "WilsonChain",
    "build_chain",
    "compare_with_nrg",
    "entanglement_entropy",
    "exact_ground",
    "find_alpha_max",
    "hellmann_feynman_check",
    "iterate",
    "map_to_kondo",
    "noninteracting_reference",
    "preset",
    "read_json_records",
    "renormalized_tunneling",
    "run",
    "run_point",
    "run_sweep",
    "verify",
    "write_output",
]
