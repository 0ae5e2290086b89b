"""Exact Clifford basis-element algebra, commutator closure with replayable
certificates, a dense matrix oracle, and quantum gate synthesis."""

import importlib

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

# Names resolved on first use (PEP 562), so that importing the package
# loads neither numpy nor the matrix and synthesis layers; ``pauli`` and
# ``power`` need no numpy either.
_LAZY = {
    **dict.fromkeys(
        ("PauliFactorization", "pauli_factorization", "replay_certificate"),
        "pauli",
    ),
    **dict.fromkeys(("PowerResult", "irrational_power", "minimal_power_scan"), "power"),
    **dict.fromkeys(
        ("decompose", "expm_hermitian", "format_matrix", "gamma", "hermitized_matrix",
         "parse_matrix", "reconstruct", "recursive_construct", "represent",
         "verify_representation"),
        "matrices",
    ),
    **dict.fromkeys(
        ("CoefficientVector", "Gate", "GateSequence", "commutator_gate", "operator_distance",
         "phase_aligned_distance", "synthesize", "trotter"),
        "synthesis",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
