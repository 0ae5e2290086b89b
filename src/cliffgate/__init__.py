"""Exact Clifford basis-element algebra, commutator closure with replayable
certificates, a dense matrix oracle, and quantum gate synthesis."""

from .algebra import (
    AmbientMismatchError,
    BasisLabel,
    ParseError,
    ScaledElement,
    all_labels,
    canonical_key,
    commutator,
    commutes,
    format_element,
    generator,
    hermitize,
    parse_element,
    parse_label,
    product,
)
from .closure import (
    CapExceededError,
    Certificate,
    ClosureResult,
    GeneratorSet,
    UnreachableTargetError,
    certificate,
    chain_generators,
    close,
    dimension,
    is_universal,
    universal_generators,
)
from .matrices import (
    PauliFactorization,
    decompose,
    expm_hermitian,
    format_matrix,
    gamma,
    hermitized_matrix,
    parse_matrix,
    pauli_factorization,
    pauli_support,
    reconstruct,
    recursive_construct,
    replay_certificate,
    represent,
    verify_representation,
)
from .synthesis import (
    CoefficientVector,
    Gate,
    GateSequence,
    PowerResult,
    basis_gate,
    commutator_gate,
    irrational_power,
    local_gate_set,
    minimal_power_scan,
    operator_distance,
    phase_aligned_distance,
    synthesize,
    trotter,
)

__version__ = "0.1.0"
