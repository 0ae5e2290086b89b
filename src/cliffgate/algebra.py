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

The other layers take three rules from here: an even ambient 2n is n
qubits and an odd one has no matrix form (:func:`qubit_count`), values of
two algebras never mix (:func:`_require_same_ambient`, :func:`_require_qubits`),
and i^phase * 2^pow2 has one complex value and one text head, shared by
element and scalar text, with one writer (:func:`format_scalar`) and one
reader (``_head``).  The error types that every layer raises live here too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

__all__ = [
    "AmbientMismatchError",
    "BasisLabel",
    "CapExceededError",
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


class CapExceededError(RuntimeError):
    """A configured search or size cap was hit before the answer."""


@dataclass(frozen=True, slots=True)
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
        if self.mask < 0 or self.mask.bit_length() > self.ambient:
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


def _require_qubits(values, n: int) -> None:
    """Raise unless every value in ``values`` acts on n qubits; one of each ambient is checked."""
    for ambient, value in {value.ambient: value for value in values}.items():
        if qubit_count(ambient) != n:
            raise AmbientMismatchError(f"{value} over ambient {ambient} does not fit {n} qubits")


def _scalar_value(phase: int, pow2: int) -> complex:
    """i^phase * 2^pow2 as a complex number.

    Raises when 2^pow2 is not a finite nonzero double, rather than
    overflowing or reading a nonzero scalar as 0.
    """
    if not -1074 <= pow2 <= 1023:
        raise ValueError(f"scalar {format_scalar(phase, pow2)} is outside the float range")
    return (1j ** phase) * 2.0 ** pow2


def canonical_key(label: BasisLabel) -> tuple[int, int]:
    """Deterministic total order on labels: by order, then by bitmask."""
    return (label.order, label.mask)


@dataclass(frozen=True, slots=True)
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
_set_mask, _set_ambient = BasisLabel.mask.__set__, BasisLabel.ambient.__set__
_set_label, _set_phase = ScaledElement.label.__set__, ScaledElement.phase.__set__
_set_pow2, _set_is_zero = ScaledElement.pow2.__set__, ScaledElement.is_zero.__set__


def _scaled(mask: int, ambient: int, phase: int, pow2: int) -> ScaledElement:
    # The one internal constructor, for a value whose operands are already
    # checked: the XOR of two in-range masks is in range and ``phase`` is
    # already reduced mod 4, so the public constructors' checks are skipped
    # and the slots are written through their descriptors.
    label = _new(BasisLabel)
    _set_mask(label, mask)
    _set_ambient(label, ambient)
    elem = _new(ScaledElement)
    _set_label(elem, label)
    _set_phase(elem, phase)
    _set_pow2(elem, pow2)
    _set_is_zero(elem, False)
    return elem


def generator(k: int, ambient: int) -> ScaledElement:
    """The k-th generator as a scaled element."""
    return ScaledElement(BasisLabel.from_indices([k], ambient))


def _require_same_ambient(a, b) -> None:
    """Raise unless two labels or elements share one ambient."""
    if a.ambient != b.ambient:
        raise AmbientMismatchError(
            f"ambient generator counts differ: {a.ambient} vs {b.ambient}"
        )


def _swap_parity(a_mask: int, b_mask: int) -> int:
    # Parity of the transpositions of the stable sorted merge of the two
    # ascending index sequences, i.e. of the pairs (i in a, j in b) with
    # i > j.  Bit i of the prefix XOR of b is the parity of b's bits 0..i,
    # so after a shift by one each bit i of a picks up the parity of the
    # b indices below i; only the bits below a's highest are read, so the
    # doubling stops at a's bit length, whatever the ambient.
    prefix = b_mask
    shift = 1
    length = a_mask.bit_length()
    while shift < length:
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
    la, lb = a.label, b.label
    ambient = la.ambient
    if lb.ambient != ambient:
        _require_same_ambient(la, lb)
    if a.is_zero or b.is_zero:
        return _zero(ambient)
    ma, mb = la.mask, lb.mask
    phase = a.phase + b.phase + 2 * _swap_parity(ma, mb)
    return _scaled(ma ^ mb, ambient, phase & 3, a.pow2 + b.pow2)


def commutes(a: BasisLabel, b: BasisLabel) -> bool:
    """True iff the two basis elements commute.

    Moving every generator of ``b`` through every generator of ``a`` gives
    |a|*|b| - |a & b| sign flips, so the pair commutes iff that count is
    even; otherwise it anticommutes.  There is no third option.
    """
    _require_same_ambient(a, b)
    return (a.mask.bit_count() * b.mask.bit_count() - (a.mask & b.mask).bit_count()) & 1 == 0


def commutator(a: ScaledElement, b: ScaledElement) -> ScaledElement:
    """[a, b] = ab - ba: the exact zero, or 2ab for anticommuting terms.

    The zero's label is the unit, which commutes with everything, so the
    commute test alone returns the zero for a zero operand."""
    la, lb = a.label, b.label
    ambient = la.ambient
    if lb.ambient != ambient:
        _require_same_ambient(la, lb)
    ma, mb = la.mask, lb.mask
    if (ma.bit_count() * mb.bit_count() - (ma & mb).bit_count()) & 1 == 0:
        return _zero(ambient)
    phase = a.phase + b.phase + 2 * _swap_parity(ma, mb)
    return _scaled(ma ^ mb, ambient, phase & 3, a.pow2 + b.pow2 + 1)


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
    masks = sorted(range(1 << ambient), key=int.bit_count)  # stable: ascending masks per order
    for mask in masks:
        yield BasisLabel(mask, ambient)


# ---------------------------------------------------------------------------
# Text form.  Canonical grammar:
#   element := "0" | [prefix] ["2^" int "*"] label
#   scalar  := [prefix] ("2^" int | "1")
#   prefix  := "-" | "i*" | "-i*"
#   label   := "e[" [index ("," index)*] "]"      indices strictly ascending
# Element and scalar open with one head, [prefix] ["2^" int], that one
# writer (format_scalar) and one reader (_head) spell.  An int is ASCII
# digits, leading zeros allowed, and blanks may pad the whole text.

_PREFIX_BY_PHASE = ("", "i*", "-", "-i*")
_LABEL_RE = re.compile(r"e\[([0-9,]*)\]")


def format_scalar(phase: int, pow2: int, body: str = "") -> str:
    """``body`` times i^phase * 2^pow2 as text, the factor 2^0 left out;
    with no body, the bare scalar "1" or "2^p" that :func:`parse_scalar`
    reads."""
    head = _PREFIX_BY_PHASE[phase % 4]
    if not body:
        return head + (f"2^{pow2}" if pow2 else "1")
    return head + (f"2^{pow2}*" if pow2 else "") + body


# The padding and separators of file and argv text, spelled only here: ASCII
# space, tab, CR and LF.  str.strip(), split() and splitlines() alone also
# take Unicode spaces and line breaks such as U+00A0, U+2003 and U+2028.
_BLANKS = " \t\r\n"


def _lines(text: str) -> list[str]:
    # the lines of file text, ended by LF, CR LF or CR
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _words(line: str) -> list[str]:
    # the words of a line: the text between runs of ASCII space and tab
    words = line.replace("\t", " ").split(" ")
    return list(filter(None, words)) if "" in words else words


def _parse_number(text: str, kind: type, what: str, column: int = 0):
    """The one reader of numbers in file and argv text: ``kind(text)``, for
    ``kind`` int or float, when the text is ASCII without ``_`` and padded
    only with ``_BLANKS``, and a :class:`ParseError` at ``column``
    otherwise.  int() and float() alone also read non-ASCII digits, ``_``
    separators and padding by vertical tab or form feed.  Only an int of
    more digits than int() reads (4300) is "too long"; the rest is "bad"."""
    if text.isascii() and "_" not in text and text.strip() == text.strip(_BLANKS):
        try:
            return kind(text)
        except ValueError:
            digits = text.strip(_BLANKS)
            digits = digits[1:] if digits[:1] in ("+", "-") else digits
            if kind is int and digits.isdigit():
                raise ParseError(f"{what} of {len(digits)} digits is too long", column) from None
    raise ParseError(f"bad {what} {text!r}", column)


# the head after its leading blanks: prefix, exponent and the "*" after it
_HEAD_RE = re.compile(rf"[{_BLANKS}]*(-?(?:i\*)?)(?:2\^(-?[0-9]+)(\*?))?")


def _head(text: str) -> tuple[int, re.Match]:
    # the phase and match of text's head; a reader checks what follows the
    # head before it reads the exponent, and refuses it at end(1)
    head = _HEAD_RE.match(text)
    return _PREFIX_BY_PHASE.index(head[1]), head


def format_element(elem: ScaledElement) -> str:
    if elem.is_zero:
        return "0"
    return format_scalar(elem.phase, elem.pow2, str(elem.label))


def parse_element(text: str, ambient: int) -> ScaledElement:
    """Parse the canonical element grammar; inverse of :func:`format_element`."""
    phase, head = _head(text)
    pos, pow2 = head.end(1), 0
    if head[3]:
        pos, pow2 = head.end(), _parse_number(head[2], int, "exponent", head.start(2))
    m = _LABEL_RE.match(text, pos)
    if m is None:
        if text.strip(_BLANKS) == "0":
            return ScaledElement.zero(ambient)
        raise ParseError(f"expected a label like e[0,1] in {text!r}", pos)
    mask = 0
    last = -1
    body = m.group(1)
    if body:
        col = m.start(1)
        for part in body.split(","):
            if not part:
                raise ParseError(f"bad generator index {part!r} in {text!r}", col)
            idx = _parse_number(part, int, "generator index", col)
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
    if text[m.end():].strip(_BLANKS):
        raise ParseError(f"trailing text after label in {text!r}", m.end())
    if ambient < 1:  # only e[] gets here; BasisLabel raises on the ambient
        BasisLabel(mask, ambient)
    return _scaled(mask, ambient, phase, pow2)


def parse_label(text: str, ambient: int) -> BasisLabel:
    """Parse a bare label (no coefficient prefix allowed)."""
    elem = parse_element(text, ambient)
    if elem.is_zero or elem.phase or elem.pow2:
        raise ParseError(f"expected a bare label, got {text!r}", 0)
    return elem.label


def parse_scalar(text: str) -> tuple[int, int]:
    """Parse a coefficient of the form i^m * 2^p; returns (phase, pow2)."""
    phase, head = _head(text)
    if head[3] or text[head.end():].rstrip(_BLANKS) != ("" if head[2] else "1"):
        raise ParseError(f"expected a scalar like 2^1 or -i*1, got {text!r}", head.end(1))
    return phase, _parse_number(head[2], int, "exponent", head.start(2)) if head[2] else 0
