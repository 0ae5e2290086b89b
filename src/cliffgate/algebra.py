"""Exact arithmetic for scaled basis elements of a complex Clifford algebra.

The algebra has ``ambient`` generators g_0, ..., g_{ambient-1} obeying
g_i g_j = -g_j g_i for i != j and g_i^2 = +1 (over the complex field any
diagonal signature rescales into this one).  An ascending product of
distinct generators is a basis element, identified by its index set alone;
over 2n generators there are exactly 4^n such labels and they span the
whole 2^n x 2^n matrix algebra.  Reordering a product only ever creates
factors of -1 and squares of generators cancel to +1, so the coefficient
of any single-term product stays inside {1, i, -1, -i} times a power of
two.  Everything here is integer arithmetic on immutable values; sums of
basis terms are out of scope (the dense-matrix layer handles those).

The other layers take two rules from here: an even ambient 2n is n qubits
and an odd one has no matrix form (:func:`qubit_count`), and i^phase *
2^pow2 has one text form and one complex value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "AmbientMismatchError",
    "BasisLabel",
    "ParseError",
    "ScaledElement",
    "all_labels",
    "canonical_key",
    "commutator",
    "commutes",
    "format_element",
    "format_scalar",
    "generator",
    "hermitization_phase",
    "hermitize",
    "parse_element",
    "parse_label",
    "parse_scalar",
    "product",
    "qubit_count",
]


class ParseError(ValueError):
    """Malformed element text.  ``column`` is the 0-based offending position."""

    def __init__(self, message: str, column: int = 0):
        super().__init__(message)
        self.column = column


class AmbientMismatchError(ValueError):
    """Operands live over different generator counts."""


@dataclass(frozen=True)
class BasisLabel:
    """Index set of an ascending product of generators, as a bitmask.

    The empty set is legal and denotes the unit element.  ``ambient`` is
    the total generator count and is carried explicitly so that values
    from different algebras cannot be mixed by accident.
    """

    mask: int
    ambient: int

    def __post_init__(self):
        if self.ambient < 1:
            raise ValueError(f"ambient generator count must be >= 1, got {self.ambient}")
        if not 0 <= self.mask < (1 << self.ambient):
            raise ValueError(
                f"label mask {self.mask:#x} out of range for ambient {self.ambient}"
            )

    @classmethod
    def from_indices(cls, indices: Iterable[int], ambient: int) -> "BasisLabel":
        mask = 0
        for idx in indices:
            if not 0 <= idx < ambient:
                raise ValueError(f"generator index {idx} out of range for ambient {ambient}")
            bit = 1 << idx
            if mask & bit:
                raise ValueError(f"duplicate generator index {idx}")
            mask |= bit
        return cls(mask, ambient)

    @classmethod
    def unit(cls, ambient: int) -> "BasisLabel":
        return cls(0, ambient)

    @property
    def indices(self) -> tuple[int, ...]:
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    @property
    def order(self) -> int:
        """Number of generators in the product."""
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "e[" + ",".join(str(i) for i in self.indices) + "]"


def qubit_count(ambient: int) -> int:
    """Qubits of the matrix form: two generators per qubit, so the 2^ambient
    labels of an even ambient span the whole 2^n x 2^n matrix algebra.
    Raises on an odd ambient, which has no matrix form."""
    if ambient % 2:
        raise ValueError(f"ambient {ambient} is odd; a matrix form needs two generators per qubit")
    return ambient // 2


def _require_qubits(value, n: int) -> None:
    # a label or element over ``value.ambient`` generators acts on n qubits
    if qubit_count(value.ambient) != n:
        raise AmbientMismatchError(f"{value} over ambient {value.ambient} does not fit {n} qubits")


def _scalar_value(phase: int, pow2: int) -> complex:
    """i^phase * 2^pow2 as a complex number."""
    return (1j ** phase) * 2.0 ** pow2


def canonical_key(label: BasisLabel) -> tuple[int, int]:
    """Deterministic total order on labels: by order, then by bitmask."""
    return (label.order, label.mask)


@dataclass(frozen=True)
class ScaledElement:
    """Exactly (i^phase * 2^pow2) times a basis label, or the exact zero.

    Never a sum.  The zero value is absorbing under products and is what
    vanishing commutators return; it is tagged with an ambient so that
    mixing algebras still fails loudly.
    """

    label: BasisLabel
    phase: int = 0
    pow2: int = 0
    is_zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phase", self.phase % 4)
        if self.is_zero:
            object.__setattr__(self, "phase", 0)
            object.__setattr__(self, "pow2", 0)
            object.__setattr__(self, "label", BasisLabel.unit(self.label.ambient))

    @classmethod
    def zero(cls, ambient: int) -> "ScaledElement":
        """The exact zero over ``ambient``; one shared (immutable) value per ambient."""
        return _zero(ambient)

    @classmethod
    def unit(cls, ambient: int) -> "ScaledElement":
        return cls(BasisLabel.unit(ambient))

    @property
    def ambient(self) -> int:
        return self.label.ambient

    @property
    def coefficient(self) -> complex:
        if self.is_zero:
            return 0j
        return _scalar_value(self.phase, self.pow2)

    def __str__(self) -> str:
        return format_element(self)


@lru_cache(maxsize=None)
def _zero(ambient: int) -> ScaledElement:
    return ScaledElement(BasisLabel.unit(ambient), is_zero=True)


_new = object.__new__
_set = object.__setattr__


def _scaled(mask: int, ambient: int, phase: int, pow2: int) -> ScaledElement:
    # Internal constructor for a value derived from validated operands: the
    # XOR of two in-range masks is in range and ``phase`` is already reduced
    # mod 4, so the checks of the public constructors are skipped.
    label = _new(BasisLabel)
    _set(label, "mask", mask)
    _set(label, "ambient", ambient)
    elem = _new(ScaledElement)
    _set(elem, "label", label)
    _set(elem, "phase", phase)
    _set(elem, "pow2", pow2)
    _set(elem, "is_zero", False)
    return elem


def generator(k: int, ambient: int) -> ScaledElement:
    """The k-th generator as a scaled element."""
    return ScaledElement(BasisLabel.from_indices([k], ambient))


def _require_same_ambient(a, b) -> int:
    """The common ambient of two labels or elements; raises if they differ."""
    if a.ambient != b.ambient:
        raise AmbientMismatchError(
            f"ambient generator counts differ: {a.ambient} vs {b.ambient}"
        )
    return a.ambient


def _swap_parity(a_mask: int, b_mask: int, ambient: int) -> int:
    # Parity of the transpositions of the stable sorted merge of the two
    # ascending index sequences, i.e. of the pairs (i in a, j in b) with
    # i > j.  Bit i of the prefix XOR of b is the parity of b's bits 0..i,
    # so after a shift by one each bit i of a picks up the parity of the
    # b indices below i.
    prefix = b_mask
    shift = 1
    while shift < ambient:
        prefix ^= prefix << shift
        shift += shift
    return (a_mask & (prefix << 1)).bit_count() & 1


def product(a: ScaledElement, b: ScaledElement) -> ScaledElement:
    """Exact single-term product.

    The resulting label is the symmetric difference of the input labels;
    each transposition needed to sort the concatenated index sequence
    contributes a factor -1, and the adjacent equal pairs left afterwards
    cancel to +1.
    """
    ambient = _require_same_ambient(a.label, b.label)
    if a.is_zero or b.is_zero:
        return _zero(ambient)
    return _nonzero_product(a, b, ambient, 0)


def _nonzero_product(
    a: ScaledElement, b: ScaledElement, ambient: int, pow2: int
) -> ScaledElement:
    # ab times 2^pow2, for nonzero operands over ``ambient``
    ma, mb = a.label.mask, b.label.mask
    return _scaled(
        ma ^ mb,
        ambient,
        (a.phase + b.phase + 2 * _swap_parity(ma, mb, ambient)) & 3,
        a.pow2 + b.pow2 + pow2,
    )


def commutes(a: BasisLabel, b: BasisLabel) -> bool:
    """True iff the two basis elements commute.

    Moving every generator of ``b`` through every generator of ``a`` gives
    |a|*|b| - |a & b| sign flips, so the pair commutes iff that count is
    even; otherwise it anticommutes.  There is no third option.
    """
    _require_same_ambient(a, b)
    return _masks_commute(a.mask, b.mask)


def _masks_commute(a_mask: int, b_mask: int) -> bool:
    return (a_mask.bit_count() * b_mask.bit_count() - (a_mask & b_mask).bit_count()) & 1 == 0


def commutator(a: ScaledElement, b: ScaledElement) -> ScaledElement:
    """[a, b] = ab - ba: the exact zero, or 2ab for anticommuting terms."""
    ambient = _require_same_ambient(a.label, b.label)
    if a.is_zero or b.is_zero or _masks_commute(a.label.mask, b.label.mask):
        return _zero(ambient)
    return _nonzero_product(a, b, ambient, 1)


def hermitization_phase(order: int) -> int:
    # Reversing k anticommuting factors costs k(k-1)/2 transpositions, so
    # the square of an order-k label is (-1)^(k(k-1)/2); an i fixes it.
    return (order * (order - 1) // 2) % 2


def hermitize(label: BasisLabel) -> ScaledElement:
    """The label rescaled by i when needed so that its square is +1.

    The result is Hermitian in every matrix representation built from
    Hermitian generators.
    """
    return ScaledElement(label, phase=hermitization_phase(label.order))


def all_labels(ambient: int) -> Iterator[BasisLabel]:
    """All 2^ambient labels in canonical (order, bitmask) order.

    Intended for oracle-scale ambients; the count grows as 2^ambient.
    """
    masks = sorted(range(1 << ambient), key=lambda m: (m.bit_count(), m))
    for mask in masks:
        yield BasisLabel(mask, ambient)


# ---------------------------------------------------------------------------
# Text form.  Canonical grammar:
#   element := "0" | [prefix] ["2^" int "*"] label
#   prefix  := "-" | "i*" | "-i*"
#   label   := "e[" [index ("," index)*] "]"      indices strictly ascending
# A bare scalar (for derivation coefficients) drops the label and prints
# "1" in place of "2^0".

_PREFIX_BY_PHASE = ("", "i*", "-", "-i*")
_PREFIXES = (("-i*", 3), ("i*", 1), ("-", 2))
_POW2_RE = re.compile(r"2\^(-?\d+)\*")
_LABEL_RE = re.compile(r"e\[([0-9,]*)\]")


def _scaled_text(phase: int, pow2: int, body: str = "") -> str:
    # body times i^phase * 2^pow2, the factor 2^0 left out; with no body,
    # the bare scalar "1" or "2^p"
    head = _PREFIX_BY_PHASE[phase % 4]
    if not body:
        return head + (f"2^{pow2}" if pow2 else "1")
    return head + (f"2^{pow2}*" if pow2 else "") + body


def _parse_prefix(text: str) -> tuple[int, int]:
    # (phase, length) of the optional "-", "i*" or "-i*" that opens text
    for prefix, phase in _PREFIXES:
        if text.startswith(prefix):
            return phase, len(prefix)
    return 0, 0


def format_element(elem: ScaledElement) -> str:
    if elem.is_zero:
        return "0"
    return _scaled_text(elem.phase, elem.pow2, str(elem.label))


def parse_element(text: str, ambient: int) -> ScaledElement:
    """Parse the canonical element grammar; inverse of :func:`format_element`."""
    stripped = text.strip()
    offset = len(text) - len(text.lstrip())
    if stripped == "0":
        return ScaledElement.zero(ambient)
    phase, pos = _parse_prefix(stripped)
    pow2 = 0
    m = _POW2_RE.match(stripped, pos)
    if m:
        pow2 = int(m.group(1))
        pos = m.end()
    m = _LABEL_RE.match(stripped, pos)
    if m is None:
        raise ParseError(f"expected a label like e[0,1] in {text!r}", offset + pos)
    mask = 0
    last = -1
    body = m.group(1)
    if body:
        col = offset + pos + 2
        for part in body.split(","):
            if not part.isdigit():
                raise ParseError(f"bad generator index {part!r} in {text!r}", col)
            idx = int(part)
            if idx >= ambient:
                raise ParseError(
                    f"generator index {idx} out of range for ambient {ambient}", col
                )
            if idx <= last:
                raise ParseError(
                    f"indices must be strictly ascending, got {idx} after {last}", col
                )
            mask |= 1 << idx
            last = idx
            col += len(part) + 1
    if m.end() != len(stripped):
        raise ParseError(f"trailing text after label in {text!r}", offset + m.end())
    return ScaledElement(BasisLabel(mask, ambient), phase=phase, pow2=pow2)


def parse_label(text: str, ambient: int) -> BasisLabel:
    """Parse a bare label (no coefficient prefix allowed)."""
    elem = parse_element(text, ambient)
    if elem.is_zero or elem.phase or elem.pow2:
        raise ParseError(f"expected a bare label, got {text!r}", 0)
    return elem.label


def format_scalar(phase: int, pow2: int) -> str:
    return _scaled_text(phase, pow2)


def parse_scalar(text: str) -> tuple[int, int]:
    """Parse a coefficient of the form i^m * 2^p; returns (phase, pow2)."""
    stripped = text.strip()
    phase, pos = _parse_prefix(stripped)
    rest = stripped[pos:]
    if rest == "1":
        return phase, 0
    m = re.fullmatch(r"2\^(-?\d+)", rest)
    if m is None:
        raise ParseError(f"expected a scalar like 2^1 or -i*1, got {text!r}", pos)
    return phase, int(m.group(1))
