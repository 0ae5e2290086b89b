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

:func:`close` is the one entry point: dimension, universality, labels
and certificates are all read off the :class:`ClosureResult` it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    BasisLabel,
    CapExceededError,
    ParseError,
    ScaledElement,
    _lines,
    _parse_number,
    _require_same_ambient,
    _words,
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
    "Certificate",
    "CertificateStep",
    "ClosureResult",
    "GeneratorSet",
    "UnreachableTargetError",
    "certificate",
    "chain_generators",
    "close",
    "universal_generators",
]

DEFAULT_LABEL_CAP = 1 << 16  # labels; a universal set over 16 generators still closes


class UnreachableTargetError(ValueError):
    """The requested target label is not in the closure."""

    def __init__(self, target: BasisLabel, dim: int):
        super().__init__(f"target {target} is not in the closure (dimension {dim})")
        self.target = target
        self.dimension = dim


@dataclass(frozen=True)
class GeneratorSet:
    """Nonempty set of nonzero scaled basis terms over one ambient count,
    checked once and then carried by its closure and certificates.  The
    elements are held in canonical label order, so two sets with the same
    elements are equal and close alike whatever their input order."""

    ambient: int
    elements: tuple[ScaledElement, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("generator set must not be empty")
        for el in {el.label.ambient: el for el in self.elements}.values():
            _require_same_ambient(self, el)  # one element of each ambient
        seen = set()
        for el in self.elements:
            if el.is_zero:
                raise ValueError("zero elements are not allowed as generators")
            if el.label in seen:
                raise ValueError(f"duplicate generator label {el.label}")
            seen.add(el.label)
        canonical = tuple(sorted(self.elements, key=lambda el: canonical_key(el.label)))
        object.__setattr__(self, "elements", canonical)


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


@dataclass(frozen=True, slots=True)
class CertificateStep:
    """One bracket: [rep(parent_a), rep(parent_b)] = element, the step's
    result.  In a closure's provenance ``parent_b`` is a generator."""

    parent_a: BasisLabel
    parent_b: BasisLabel
    element: ScaledElement


@dataclass
class ClosureResult:
    """What :func:`close` found: ``generators`` is the set it closed."""

    generators: GeneratorSet
    representatives: dict[BasisLabel, ScaledElement]
    provenance: dict[BasisLabel, CertificateStep]
    depth: dict[BasisLabel, int]
    unit_vacuous: bool = False

    @property
    def dimension(self) -> int:
        return len(self.representatives)

    @property
    def universal(self) -> bool:
        """True iff the closure spans su(2^n), i.e. reaches every label of
        ambient 2n but the unit.  Raises on an odd ambient, which has no
        matrix form."""
        qubit_count(self.generators.ambient)
        return _spans_outside_centre(self.representatives, self.generators.ambient)

    def labels(self) -> list[BasisLabel]:
        return sorted(self.representatives, key=canonical_key)

    def audit_closed(self) -> bool:
        """True iff every pair of reached labels brackets into the closure.

        Two basis elements commute or anticommute, and an anticommuting pair
        brackets onto the label ``a ^ b``, so every ordered pair is checked
        on masks alone, with nothing from :mod:`cliffgate.algebra`, the code
        the audit checks."""
        masks = {label.mask for label in self.representatives}
        # the pair commutes iff |a|*|b| - |a & b| is even (algebra.commutes)
        return all(
            (a.bit_count() * b.bit_count() - (a & b).bit_count()) & 1 == 0 or a ^ b in masks
            for a in masks
            for b in masks
        )


def close(gens: GeneratorSet, *, cap: int = DEFAULT_LABEL_CAP) -> ClosureResult:
    """Smallest label set containing the generators and closed under
    nonvanishing pairwise commutators.

    Layered breadth-first worklist: each layer brackets the newest labels
    with the generators only, both in canonical order, and records
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
    depth = {label: 0 for label in reps}
    provenance: dict[BasisLabel, CertificateStep] = {}
    seen = {label.mask for label in reps}
    brackets = [(b, b.mask, b.order, reps[b]) for b in reps]
    frontier = list(reps)
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
                found[c.label] = CertificateStep(a, b, c)
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
        generators=gens,
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
    generator itself or the unit label (the empty derivation).  ``ambient``
    is the target's, for the text's ``ambient`` line and a replay's qubits,
    and ``generators`` its closure's :class:`GeneratorSet`, checked once
    when it was built.  Its rules live in one walk, :meth:`replay`, run by
    :meth:`validate` and ``pauli.replay_certificate`` alike.  Its text has a
    record per line, read from the line's words (``algebra._words``): a kind
    and one value, or the seven words ``step L := [A, B] * S``.
    """

    target: BasisLabel
    generators: GeneratorSet
    steps: tuple[CertificateStep, ...]
    scalar_phase: int
    scalar_pow2: int

    @property
    def ambient(self) -> int:
        return self.target.ambient

    def replay(self, form, bracket):
        """The one walk of the derivation: ``form`` maps a nonzero element to
        a value and ``bracket`` two values to their commutator, whose zero
        equals no value.  Yields a message for each step, and for a target,
        that differs from what it records (a recorded zero always does); the
        walk goes on, each step deriving what it records.  Raises ValueError
        on a generator set or a step element over another ambient than the
        target's, a parent used before its derivation and a target of order
        >= 1 never derived.  The set itself is not checked again."""
        _require_same_ambient(self, self.generators)
        values = {g.label: form(g) for g in self.generators.elements}
        for step in self.steps:
            el = step.element
            _require_same_ambient(self, el)
            for parent in (step.parent_a, step.parent_b):
                if parent not in values:
                    raise ValueError(f"step parent {parent} has no prior derivation")
            got = bracket(values[step.parent_a], values[step.parent_b])
            if not el.is_zero:  # a recorded zero derives nothing
                values[el.label] = form(el)
            if el.is_zero or got != values[el.label]:
                yield f"step for {el.label} does not replay: got {got}"
        if self.target not in values:
            if self.target.order:
                raise ValueError(f"target {self.target} never derived")
            values[self.target] = form(ScaledElement.unit(self.ambient))
        phase = hermitization_phase(self.target.order) + self.scalar_phase
        recorded = form(ScaledElement(self.target, phase, self.scalar_pow2))
        if values[self.target] != recorded:
            yield f"terminal scalar mismatch: derived {values[self.target]}, recorded {recorded}"

    def validate(self) -> None:
        """Raise ValueError on the first failure of :meth:`replay` in exact
        element arithmetic."""
        for failure in self.replay(lambda el: el, commutator):
            raise ValueError(failure)

    def to_text(self) -> str:
        lines = [f"ambient {self.ambient}", f"target {self.target}"]
        lines += [f"generator {format_element(g)}" for g in self.generators.elements]
        for step in self.steps:
            head = f"step {step.element.label} := [{step.parent_a}, {step.parent_b}]"
            lines.append(f"{head} * {format_scalar(step.element.phase, step.element.pow2)}")
        lines.append(f"scalar {format_scalar(self.scalar_phase, self.scalar_pow2)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        ambient = None
        target = None
        gens: list[tuple[int, ScaledElement]] = []  # (line, element)
        steps: list[CertificateStep] = []
        scalar = None
        for ln, raw in enumerate(_lines(text), start=1):
            try:
                match _words(raw):
                    case []:
                        continue
                    case ["ambient", value] if ambient is None:
                        ambient = _parse_number(value, int, "ambient")
                        if ambient < 1:
                            raise ParseError(f"bad ambient {value!r}")
                    case [kind, *_] if ambient is None and kind != "ambient":
                        raise ParseError("ambient must come first")
                    case ["generator", value]:
                        gens.append((ln, parse_element(value, ambient)))
                    case ["step", result, ":=", a, b, "*", coeff] if a[0] + a[-1] + b[-1] == "[,]":
                        phase, pow2 = parse_scalar(coeff)
                        element = ScaledElement(parse_label(result, ambient), phase, pow2)
                        parents = parse_label(a[1:-1], ambient), parse_label(b[:-1], ambient)
                        steps.append(CertificateStep(*parents, element))
                    case ["target", value] if target is None:
                        target = parse_label(value, ambient)
                    case ["scalar", value] if scalar is None:
                        scalar = parse_scalar(value)
                    case [kind, _] if kind in ("ambient", "target", "scalar"):
                        raise ParseError(f"repeated {kind} record")
                    case [kind, *_] if kind in ("ambient", "target", "generator", "step", "scalar"):
                        raise ParseError(f"malformed {kind} {raw!r}")
                    case [kind, *_]:
                        raise ParseError(f"unknown record {kind!r}")
            except ParseError as exc:
                raise ParseError(f"line {ln}: {exc}", exc.column)
        if ambient is None or target is None or scalar is None or not gens:
            raise ParseError("certificate text is missing ambient/target/generators/scalar")
        elements = tuple(el for _, el in gens)
        try:
            generators = GeneratorSet(ambient, elements)
        except ValueError:
            # the set's rules fail first at the first line whose prefix breaks them
            for k, (ln, _) in enumerate(gens, start=1):
                try:
                    GeneratorSet(ambient, elements[:k])
                except ValueError as exc:
                    raise ParseError(f"line {ln}: {exc}") from None
        cert = cls(target, generators, tuple(steps), *scalar)
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
    _require_same_ambient(result.generators, target)
    if target not in result.representatives:
        raise UnreachableTargetError(target, result.dimension)
    steps = []
    label = target
    while label in result.provenance:
        steps.append(result.provenance[label])
        label = steps[-1].parent_a
    rep = result.representatives[target]
    return Certificate(
        target=target,
        generators=result.generators,
        steps=tuple(reversed(steps)),
        scalar_phase=(rep.phase - hermitization_phase(target.order)) % 4,
        scalar_pow2=rep.pow2,
    )
