"""Command-line front end: closure, certification, representation checks,
gate-set listing, synthesis and power search as reproducible batch commands.

Every subcommand prints one stream of records, one ``kind key=value ...``
record per line; ``closure`` lists every reached label in canonical order
(``--cap`` bounds the list), and ``certify`` and ``synth`` also print the
certificate or gate-sequence text.  ``--format records`` writes floats at
full 17-digit precision and ``--format human`` (the default) the same
lines with floats at 6 significant digits.  With fixed flags and seed
the output is byte-identical across runs.

Each subcommand declares only the flags it reads; any other flag is a
usage error (exit 2).  All six take ``--format`` and ``--cap``, and
``verify-rep`` alone takes ``--seed`` (non-negative, default 0).
``synth`` accepts a Hermiticity defect up to a fixed 1e-10, and
``power --angle -pi/4`` (or ``--ang -pi/4``) reads as ``--angle=-pi/4``.
``--cap`` has one meaning per layer: the labels a closure may reach in
``closure``, ``certify`` and ``gateset`` (default 2^16; an ambient above
64, or a ``gateset`` above 32 qubits, is refused whatever the cap), the
qubit count of the matrices ``verify-rep`` and ``synth`` build (default
6) and the applications ``power`` searches (default 10^9).

The verdicts are exact: ``universal=`` is ``ClosureResult.universal``,
``local=`` is ``PauliFactorization.local`` and ``certify``'s ``ok=true``
needs an integer replay deviation of exactly 0.

Only ``verify-rep`` and ``synth`` load numpy; ``closure``, ``certify``
(which replays on integer Pauli monomials), ``gateset`` and ``power``
(an exact convergent walk) run on integers.

Exit codes: 0 success, 2 parse/usage error, 3 precondition failure,
4 verification failure, 5 cap exceeded (including a ``synth`` product
formula above the gate budget of 2^20 gates).  A reader that closes
stdout early (``| head``) is no failure: the run stops at exit 0 with
nothing on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .algebra import ParseError, format_element, parse_element, parse_label
from .closure import (
    DEFAULT_LABEL_CAP,
    CapExceededError,
    Certificate,
    GeneratorSet,
    certificate,
    chain_generators,
    close,
)
from .pauli import pauli_factorization, replay_certificate
from .power import DEFAULT_POWER_CAP, irrational_power

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_CAP = 5

MAX_AMBIENT = 64  # generators; a larger closure ambient exits 5 whatever --cap says
# the --cap of each layer: (default, help)
LABEL_CAP = (DEFAULT_LABEL_CAP, "labels the closure may reach (default 2^16)")
QUBIT_CAP = (6, "qubits of the matrices built (default 6)")
POWER_CAP = (DEFAULT_POWER_CAP, "applications N searched (default 10^9)")


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    digits: int  # significant digits of printed floats

    def emit(self, kind: str, *words, **fields) -> None:
        """Print one record: the kind, bare words, then key=value fields."""
        parts = [kind, *map(str, words)]
        for key, value in fields.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = f"{value:.{self.digits}g}"
            parts.append(f"{key}={value}")
        print(" ".join(parts))


def _angle_value(text: str) -> float:
    """Accept a finite float or a simple multiple of pi such as pi/2 or -2*pi/3."""
    try:
        value = float(text)
    except ValueError:
        m = re.fullmatch(r"\s*(-)?(\d+\.?\d*|\.\d+)?\*?pi(?:/(\d+\.?\d*))?\s*", text)
        if m is None:
            raise ParseError(f"cannot parse angle {text!r}; use a float or k*pi/m") from None
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise ParseError(f"angle {text!r} divides by zero") from None
        value = sign * num * math.pi / den
    if not math.isfinite(value):
        raise ParseError(f"angle {text!r} is not finite")
    return value


def _parse_generators(texts, ambient):
    """The ``-m`` rule of ``closure`` and ``certify`` (1..64), then the generators."""
    _check_ambient(ambient)
    if ambient < 1:
        raise ValueError("ambient must be >= 1")
    elements = []
    for pos, text in enumerate(texts):
        try:
            elements.append(parse_element(text, ambient))
        except ParseError as exc:
            raise ParseError(f"generator {pos + 1}: column {exc.column}: {exc}", exc.column)
    return GeneratorSet(ambient, tuple(elements))


def _check_ambient(ambient: int) -> None:
    if ambient > MAX_AMBIENT:
        raise CapExceededError(f"ambient {ambient} exceeds the symbolic cap {MAX_AMBIENT}")


def _check_qubits(qubits: int, cap: int) -> None:
    if qubits > cap:
        raise CapExceededError(f"{qubits} qubits exceeds the matrix cap {cap}")


def cmd_closure(args, config: RunConfig) -> int:
    gens = _parse_generators(args.generators, args.ambient)
    result = close(gens, cap=args.cap)
    dim = result.dimension
    verdict = "unsupported" if args.ambient % 2 else result.universal
    config.emit(
        "closure", ambient=args.ambient, generators=len(gens.elements), dim=dim, universal=verdict
    )
    for label in result.labels():
        config.emit("label", label)
    return EXIT_OK


def cmd_certify(args, config: RunConfig) -> int:
    gens = _parse_generators(args.generators, args.ambient)
    target = parse_label(args.target, args.ambient)
    serialized = certificate(close(gens, cap=args.cap), target).to_text()
    sys.stdout.write(serialized)
    # the replay consumes the serialized form, so the text format itself is
    # exercised on every run
    cert = Certificate.from_text(serialized)
    if args.ambient % 2:
        config.emit("replay", skipped=True, reason="odd-ambient")
        return EXIT_OK
    report = replay_certificate(cert)
    ok = report.deviation == 0.0  # the replay is exact
    config.emit("replay", deviation=report.deviation, steps=report.steps, ok=ok)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify_rep(args, config: RunConfig) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    _check_qubits(args.qubits, args.cap)
    from .matrices import verify_representation  # loads numpy

    checks = verify_representation(args.qubits, seed=args.seed)
    for check in checks:
        config.emit(
            "check",
            name=check.name,
            deviation=check.deviation,
            tolerance=check.tolerance,
            status="pass" if check.passed else "fail",
        )
    failed = sum(not check.passed for check in checks)
    config.emit("verify", qubits=args.qubits, checks=len(checks), failed=failed)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_gateset(args, config: RunConfig) -> int:
    _check_ambient(2 * args.qubits)
    gens = chain_generators(2 * args.qubits)
    result = close(gens, cap=args.cap)  # before any output: a capped run prints nothing
    facts = [pauli_factorization(el, args.qubits) for el in gens.elements]
    for el, fact in zip(gens.elements, facts):
        support = ",".join(map(str, fact.support())) or "-"
        config.emit(
            "element", label=format_element(el), pauli=str(fact), support=support, local=fact.local
        )
    config.emit(
        "gateset", qubits=args.qubits, count=len(facts), dim=result.dimension,
        universal=result.universal, local=all(fact.local for fact in facts),
    )
    return EXIT_OK


def cmd_synth(args, config: RunConfig) -> int:
    _check_qubits(args.qubits, args.cap)
    from .matrices import parse_matrix  # loads numpy
    from .synthesis import synthesize

    h = parse_matrix(Path(args.input).read_text())
    seq = synthesize(h, args.steps, args.qubits)
    serialized = seq.to_text()
    if args.output:
        Path(args.output).write_text(serialized)
    else:
        sys.stdout.write(serialized)
    config.emit(
        "synth", qubits=args.qubits, steps=args.steps, gates=len(seq.gates), error=float(seq.error)
    )
    return EXIT_OK


def cmd_power(args, config: RunConfig) -> int:
    angle = _angle_value(args.angle)
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise UsageError(f"--eps must be positive and finite, got {args.eps}")
    result = irrational_power(angle, args.eps, cap=args.cap)
    config.emit(
        "power",
        angle=angle,
        eps=args.eps,
        N=result.applications,
        residual=result.residual,
        signed=result.signed_angle,
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffgate",
        description="Clifford basis-element algebra, commutator closure and gate synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, cap, help):
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--format", choices=("human", "records"), default="human",
            help="float precision of the records: 6 (human) or 17 (records) significant digits",
        )
        p.add_argument("--cap", type=int, default=cap[0], help=cap[1])
        p.set_defaults(handler=handler)
        return p

    p = command("closure", cmd_closure, LABEL_CAP, "close a generator set")
    p.add_argument("-m", "--ambient", type=int, required=True, help="generator count")
    p.add_argument("generators", nargs="+", help="elements like e[0] or i*e[0,1,2]")

    p = command("certify", cmd_certify, LABEL_CAP, "derive one label and replay it")
    p.add_argument("-m", "--ambient", type=int, required=True)
    p.add_argument("--target", required=True, help="target label like e[0,1]")
    p.add_argument("generators", nargs="+")

    p = command("verify-rep", cmd_verify_rep, QUBIT_CAP, "run the dense-oracle sweep")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps (>= 0)")
    p.add_argument("-n", "--qubits", type=int, required=True)

    p = command("gateset", cmd_gateset, LABEL_CAP, "list the local universal gate set")
    p.add_argument("-n", "--qubits", type=int, required=True)

    p = command("synth", cmd_synth, QUBIT_CAP, "synthesize exp(i*H) from a matrix file")
    p.add_argument("-n", "--qubits", type=int, required=True)
    p.add_argument("-N", "--steps", type=int, required=True, help="product-formula repetitions")
    p.add_argument("-i", "--input", required=True, help="Hermitian matrix text file")
    p.add_argument("-o", "--output", default=None, help="gate sequence output file")

    p = command("power", cmd_power, POWER_CAP, "minimal power near a full turn")
    p.add_argument("--angle", required=True, help="gate angle (float or k*pi/m)")
    p.add_argument("--eps", type=float, required=True, help="residual tolerance")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["power"]:
        # argparse takes a separate value such as -pi/4 for a flag; the = form is unambiguous.
        # Every prefix from --a on names --angle, since power has no other --a flag.
        for k, word in enumerate(argv[:-1]):
            if len(word) >= 3 and "--angle".startswith(word):
                argv[k : k + 2] = [f"--angle={argv[k + 1]}"]
                break
    args = _build_parser().parse_args(argv)
    config = RunConfig(digits=17 if args.format == "records" else 6)
    try:
        code = args.handler(args, config)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:  # the reader stopped early; keep the flush at shutdown quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:  # unreachable targets and ambient mismatches too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
