"""Commutator closure over basis labels, with replayable derivations.

A commutator of two scaled basis terms is either exactly zero or an exact
scalar times a single basis term.  The Lie algebra generated by a set S is
spanned by the right-normed brackets [s1, [s2, ..., [s_{k-1}, s_k]]] with
every s_i in S (Jacobson, *Lie Algebras*), and each of those is zero or a
scalar times one label, so the algebra is spanned by the labels reached
from the generators by repeatedly bracketing a reached label with a
generator.  That turns the usual rank computation into set closure, and
each label's derivation into a chain of generator brackets.

Counting convention.  Commutators of distinct basis terms never land on
the unit label, and the unit commutes with everything, so a generating set
confined to orders one and two closes inside that quadratic sector (the
spin-algebra pattern of dimension m(m+1)/2 over m generators).  Once the
closure has left that sector and reached every label outside the centre
(the unit, plus the top label at odd ambient), the engine also counts the
unit as reached, with an empty derivation: the unit is the empty product,
and counting it makes a universal closure tally all 4^n labels of the
n-qubit unitary algebra.  An order-3 label alone is not enough:
{i*e[0,1,2], e[3]} closes to su(2), three labels.
``ClosureResult.unit_vacuous`` records when this rule fired.  A closure
is universal (it spans su(2^n)) when it reaches every label outside the
centre: dimension 2^ambient at even ambient >= 4, and 3 at ambient 2,
which has no order-3 label ({e[0], e[1]} is su(2)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AmbientMismatchError,
    BasisLabel,
    ParseError,
    ScaledElement,
    _scalar_value,
    canonical_key,
    commutator,
    format_element,
    format_scalar,
    generator,
    hermitization_phase,
    hermitize,
    parse_element,
    parse_label,
    parse_scalar,
    qubit_count,
)

__all__ = [
    "CapExceededError",
    "Certificate",
    "CertificateStep",
    "ClosureResult",
    "GeneratorSet",
    "UnreachableTargetError",
    "certificate",
    "chain_generators",
    "close",
    "dimension",
    "is_universal",
    "universal_generators",
]

DEFAULT_LABEL_CAP = 1 << 16  # labels; a universal set over 16 generators still closes


class CapExceededError(RuntimeError):
    """A configured search or size cap was hit before the answer."""


class UnreachableTargetError(ValueError):
    """The requested target label is not in the closure."""

    def __init__(self, target: BasisLabel, dim: int):
        super().__init__(f"target {target} is not in the closure (dimension {dim})")
        self.target = target
        self.dimension = dim


@dataclass(frozen=True)
class GeneratorSet:
    """Nonempty set of nonzero scaled basis terms over one ambient count."""

    ambient: int
    elements: tuple[ScaledElement, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("generator set must not be empty")
        seen = set()
        for el in self.elements:
            if el.ambient != self.ambient:
                raise AmbientMismatchError(
                    f"generator {el} lives over ambient {el.ambient}, expected {self.ambient}"
                )
            if el.is_zero:
                raise ValueError("zero elements are not allowed as generators")
            if el.label in seen:
                raise ValueError(f"duplicate generator label {el.label}")
            seen.add(el.label)

    @classmethod
    def of(cls, elements) -> "GeneratorSet":
        elements = tuple(elements)
        if not elements:
            raise ValueError("generator set must not be empty")
        return cls(elements[0].ambient, elements)

    @property
    def labels(self) -> tuple[BasisLabel, ...]:
        return tuple(el.label for el in self.elements)


def universal_generators(ambient: int) -> GeneratorSet:
    """All single generators plus the hermitized product of the first three.

    The smallest stock set whose closure reaches every label.  Needs three
    distinct indices, hence ambient >= 3; odd ambients are allowed for
    experiments (their top label stays out of reach).
    """
    if ambient < 3:
        raise ValueError(
            f"ambient {ambient} cannot host an order-3 element; need at least 3 generators"
        )
    extra = hermitize(BasisLabel.from_indices([0, 1, 2], ambient))
    return GeneratorSet(ambient, tuple(generator(k, ambient) for k in range(ambient)) + (extra,))


def chain_generators(ambient: int) -> GeneratorSet:
    """One endpoint generator plus nearest-neighbour pair elements.

    The set {g_0, h(e_{01}), h(e_{12}), ..., h(e_{ambient-2,ambient-1}),
    h(e_{012})}: every element acts on at most two adjacent qubits in the
    matrix form, yet the closure still reaches every label.
    """
    if ambient < 3:
        raise ValueError(f"ambient {ambient} too small for the chain set; need at least 3")
    pairs = tuple(
        hermitize(BasisLabel.from_indices([l - 1, l], ambient)) for l in range(1, ambient)
    )
    extra = hermitize(BasisLabel.from_indices([0, 1, 2], ambient))
    return GeneratorSet(ambient, (generator(0, ambient),) + pairs + (extra,))


@dataclass(frozen=True)
class CertificateStep:
    """One bracket: [rep(parent_a), rep(parent_b)] = element, whose label is
    ``result``.  In a closure's provenance ``parent_b`` is a generator."""

    result: BasisLabel
    parent_a: BasisLabel
    parent_b: BasisLabel
    element: ScaledElement


@dataclass
class ClosureResult:
    ambient: int
    initial: tuple[BasisLabel, ...]
    representatives: dict[BasisLabel, ScaledElement]
    provenance: dict[BasisLabel, CertificateStep]
    depth: dict[BasisLabel, int]
    unit_vacuous: bool = False

    @property
    def reached(self) -> frozenset[BasisLabel]:
        return frozenset(self.representatives)

    @property
    def dimension(self) -> int:
        return len(self.representatives)

    @property
    def universal(self) -> bool:
        """True iff the closure spans su(2^n), i.e. reaches every label of
        ambient 2n but the unit.  Raises on an odd ambient, which has no
        matrix form."""
        qubit_count(self.ambient)
        return _spans_outside_centre(self.representatives, self.ambient)

    def labels(self) -> list[BasisLabel]:
        return sorted(self.representatives, key=canonical_key)

    def audit_closed(self) -> bool:
        """Exhaustively recompute all pairwise commutators; True iff no new
        label appears."""
        labels = self.labels()
        for a in labels:
            ra = self.representatives[a]
            for b in labels:
                c = commutator(ra, self.representatives[b])
                if not c.is_zero and c.label not in self.representatives:
                    return False
        return True


def close(gens: GeneratorSet, *, cap: int = DEFAULT_LABEL_CAP) -> ClosureResult:
    """Smallest label set containing the generators and closed under
    nonvanishing pairwise commutators.

    Layered breadth-first worklist: each layer brackets the newest labels,
    in ascending canonical order, with the generators only, and records
    ``[previous label, generator]`` for each label it finds first.  That
    suffices: the algebra is spanned by the right-normed brackets
    ``[s1, [s2, ..., [s_{k-1}, s_k]]]`` with every ``s_i`` a generator, and
    each such bracket is zero or a scalar times one label, so every label
    in the algebra is reached this way.  ``depth`` is the minimal number of
    generator brackets that produce a label, and the run is reproducible
    (ties are broken by label order, never by arrival time).

    Each pair is first tested on its masks alone: it is skipped when the
    two labels commute or when its label ``a ^ b`` was already reached, so
    only a label's first finder costs a commutator.  Raises
    :class:`CapExceededError` once the closure would hold more than ``cap``
    labels, the vacuous unit included.
    """
    ambient = gens.ambient
    reps: dict[BasisLabel, ScaledElement] = {el.label: el for el in gens.elements}
    initial = tuple(sorted(reps, key=canonical_key))
    depth = {label: 0 for label in initial}
    provenance: dict[BasisLabel, CertificateStep] = {}
    seen = {label.mask for label in initial}
    brackets = [(b, b.mask, b.order, reps[b]) for b in initial]
    frontier = list(initial)
    while frontier:
        found: dict[BasisLabel, CertificateStep] = {}
        for a in frontier:
            rep_a = reps[a]
            mask_a = a.mask
            order_a = a.order
            for b, mask_b, order_b, rep_b in brackets:
                # the pair commutes iff |a|*|b| - |a & b| is even (algebra.commutes)
                if (order_a * order_b - (mask_a & mask_b).bit_count()) & 1 == 0:
                    continue
                if (mask_a ^ mask_b) in seen:
                    continue
                seen.add(mask_a ^ mask_b)
                if len(seen) > cap:
                    raise _label_cap_exceeded(cap)
                c = commutator(rep_a, rep_b)
                found[c.label] = CertificateStep(c.label, a, b, c)
        if not found:
            break
        layer = sorted(found, key=canonical_key)
        for label in layer:
            step = found[label]
            reps[label] = step.element
            provenance[label] = step
            depth[label] = depth[step.parent_a] + 1
        frontier = layer
    unit = BasisLabel.unit(ambient)
    unit_vacuous = (
        _spans_outside_centre(reps, ambient)
        and unit not in reps
        and any(label.order >= 3 for label in reps)
    )
    if unit_vacuous:
        reps[unit] = ScaledElement.unit(ambient)
        depth[unit] = 0
    if len(reps) > cap:
        raise _label_cap_exceeded(cap)
    return ClosureResult(
        ambient=ambient,
        initial=initial,
        representatives=reps,
        provenance=provenance,
        depth=depth,
        unit_vacuous=unit_vacuous,
    )


def _spans_outside_centre(reps: dict[BasisLabel, ScaledElement], ambient: int) -> bool:
    # every label outside the centre (the unit, plus the top at odd ambient) is reached
    unit = BasisLabel.unit(ambient)
    centre = {unit, BasisLabel((1 << ambient) - 1, ambient)} if ambient % 2 else {unit}
    return len(reps) + len(centre - reps.keys()) == 1 << ambient


def _label_cap_exceeded(cap: int) -> CapExceededError:
    return CapExceededError(f"the closure has more than {cap} labels")


def dimension(gens: GeneratorSet) -> int:
    return close(gens).dimension


def is_universal(gens: GeneratorSet) -> bool:
    """True iff the closure spans su(2^n) (:attr:`ClosureResult.universal`);
    raises on an odd ambient."""
    return close(gens).universal


# ---------------------------------------------------------------------------
# Certificates: replayable derivations of a single target label.


@dataclass(frozen=True)
class Certificate:
    """Chain of generator brackets that derives one target label.

    Each step brackets the previous step's result (a generator for the
    first step) with a generator.

    Replaying the steps from the generator elements reproduces the target's
    representative exactly; the recorded scalar relates that representative
    to the hermitized target.  An empty step list certifies either a
    generator itself or the unit label (the empty derivation).
    """

    ambient: int
    target: BasisLabel
    generators: tuple[ScaledElement, ...]
    steps: tuple[CertificateStep, ...]
    scalar_phase: int
    scalar_pow2: int

    @property
    def scalar(self) -> complex:
        return _scalar_value(self.scalar_phase, self.scalar_pow2)

    def validate(self) -> None:
        """Symbolic replay; raises ValueError on any inconsistency."""
        avail = {g.label: g for g in self.generators}
        for step in self.steps:
            for parent in (step.parent_a, step.parent_b):
                if parent not in avail:
                    raise ValueError(f"step parent {parent} has no prior derivation")
            c = commutator(avail[step.parent_a], avail[step.parent_b])
            if c.is_zero or c.label != step.result or c != step.element:
                raise ValueError(f"step for {step.result} does not replay: got {c}")
            avail[step.result] = c
        if self.target.order and self.target not in avail:
            raise ValueError(f"target {self.target} never derived")
        actual = avail.get(self.target, ScaledElement.unit(self.ambient))
        expected = ScaledElement(
            self.target,
            phase=hermitization_phase(self.target.order) + self.scalar_phase,
            pow2=self.scalar_pow2,
        )
        if actual != expected:
            raise ValueError(
                f"terminal scalar mismatch: derived {actual}, recorded {expected}"
            )

    def to_text(self) -> str:
        lines = [f"ambient {self.ambient}", f"target {self.target}"]
        lines += [f"generator {format_element(g)}" for g in self.generators]
        for step in self.steps:
            coeff = format_scalar(step.element.phase, step.element.pow2)
            lines.append(f"step {step.result} := [{step.parent_a}, {step.parent_b}] * {coeff}")
        lines.append(f"scalar {format_scalar(self.scalar_phase, self.scalar_pow2)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        ambient = None
        target = None
        gens: list[ScaledElement] = []
        steps: list[CertificateStep] = []
        scalar = None
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            kind, _, rest = line.partition(" ")
            if kind == "ambient":
                try:
                    ambient = int(rest)
                except ValueError:
                    raise ParseError(f"line {ln}: bad ambient {rest!r}") from None
            elif ambient is None:
                raise ParseError(f"line {ln}: ambient must come first")
            elif kind == "target":
                target = parse_label(rest, ambient)
            elif kind == "generator":
                gens.append(parse_element(rest, ambient))
            elif kind == "step":
                head, _, coeff_text = rest.rpartition(" * ")
                result_text, _, bracket = head.partition(" := ")
                if not bracket.startswith("[") or not bracket.endswith("]"):
                    raise ParseError(f"line {ln}: malformed step {raw!r}")
                a_text, _, b_text = bracket[1:-1].partition(", ")
                phase, pow2 = parse_scalar(coeff_text)
                result = parse_label(result_text.strip(), ambient)
                steps.append(
                    CertificateStep(
                        result=result,
                        parent_a=parse_label(a_text.strip(), ambient),
                        parent_b=parse_label(b_text.strip(), ambient),
                        element=ScaledElement(result, phase=phase, pow2=pow2),
                    )
                )
            elif kind == "scalar":
                scalar = parse_scalar(rest)
            else:
                raise ParseError(f"line {ln}: unknown record {kind!r}")
        if ambient is None or target is None or scalar is None or not gens:
            raise ParseError("certificate text is missing ambient/target/generators/scalar")
        cert = cls(
            ambient=ambient,
            target=target,
            generators=GeneratorSet(ambient, tuple(gens)).elements,
            steps=tuple(steps),
            scalar_phase=scalar[0],
            scalar_pow2=scalar[1],
        )
        cert.validate()
        return cert


def certificate(result: ClosureResult, target: BasisLabel) -> Certificate:
    """Minimal-depth derivation of ``target`` read off the closure's
    provenance.

    Every recorded step is ``[previous label, generator]``, so the
    derivation is the chain found by walking ``parent_a`` back from the
    target to a generator; it has ``depth[target]`` steps, the minimal
    number of generator brackets that produce the target.
    """
    if target.ambient != result.ambient:
        raise AmbientMismatchError(
            f"target over ambient {target.ambient}, closure over {result.ambient}"
        )
    if target not in result.representatives:
        raise UnreachableTargetError(target, result.dimension)
    steps = []
    label = target
    while label in result.provenance:
        steps.append(result.provenance[label])
        label = steps[-1].parent_a
    rep = result.representatives[target]
    return Certificate(
        ambient=result.ambient,
        target=target,
        generators=tuple(result.representatives[label] for label in result.initial),
        steps=tuple(reversed(steps)),
        scalar_phase=(rep.phase - hermitization_phase(target.order)) % 4,
        scalar_pow2=rep.pow2,
    )
