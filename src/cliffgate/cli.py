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

``synth`` reads its matrix file as UTF-8 and at most 64 bytes per entry
of the 2^n x 2^n matrix, so ``--cap`` also bounds the bytes it reads.
A product formula is written as its block of gate lines repeated N
times.

Every number in argv and in the matrix file is read by one rule
(``algebra._parse_number``): ASCII text, padded only by space, tab, CR or
LF, that ``int()`` or ``float()`` reads, with no ``_``.  The entries of a
matrix row are its words (``algebra._words``), split at any run of space
and tab, and ``--angle`` is stripped of ``algebra._BLANKS``.  Any other
digit or blank (an Arabic-Indic digit, a form feed) is a parse or usage
error (exit 2).

Exit codes: 0 success, 2 parse/usage error (a matrix file that is not
UTF-8 included), 3 precondition failure, 4 verification failure, 5 cap
exceeded (a ``synth`` matrix file past its byte budget, a product
formula above the gate budget of 2^20 gate lines, a ``verify-rep``
planned past its fixed memory budget, such as ``-n 12 --cap 12``, and
an allocation the machine refuses, each with nothing on stdout).  A
reader that closes stdout early (``| head``) is no failure: the run
stops at exit 0 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path

from .algebra import (
    CapExceededError,
    ParseError,
    _BLANKS,
    _parse_number,
    format_element,
    parse_element,
    parse_label,
)
from .closure import (
    DEFAULT_LABEL_CAP,
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


def _emit(digits: int, kind: str, *words, **fields) -> None:
    """Print one record: the kind, bare words, then key=value fields, floats
    at ``digits`` significant digits.  ``main`` binds ``digits`` and hands
    the result to each handler as ``emit``."""
    parts = [kind, *map(str, words)]
    for key, value in fields.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.{digits}g}"
        parts.append(f"{key}={value}")
    print(" ".join(parts))


def _number_flag(kind: type):
    """The ``type=`` of a number flag: the one number reader, named ``int``
    or ``float`` as argparse's "invalid ... value" message shows it."""

    def read(text: str):
        return _parse_number(text, kind, kind.__name__)

    read.__name__ = kind.__name__
    return read


_INT, _FLOAT = _number_flag(int), _number_flag(float)


def _angle_value(text: str) -> float:
    """Accept a finite float or a multiple of pi, [-][k[*]]pi[/m], such as
    pi/2, -2*pi/3 or pi/.5; k and m are unsigned decimals, and a * needs a k."""
    try:
        value = _parse_number(text, float, "angle")
    except ParseError:
        number = r"[0-9]+\.?[0-9]*|\.[0-9]+"
        m = re.fullmatch(rf"(-)?(?:({number})\*?)?pi(?:/({number}))?", text.strip(_BLANKS))
        if m is None:
            raise ParseError(f"cannot parse angle {text!r}; use a float or k*pi/m") from None
        sign = -1.0 if m.group(1) else 1.0
        num = _parse_number(m.group(2), float, "angle") if m.group(2) else 1.0
        den = _parse_number(m.group(3), float, "angle") if m.group(3) else 1.0
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


def cmd_closure(args, emit) -> int:
    gens = _parse_generators(args.generators, args.ambient)
    result = close(gens, cap=args.cap)
    dim = result.dimension
    verdict = "unsupported" if args.ambient % 2 else result.universal
    emit(
        "closure", ambient=args.ambient, generators=len(gens.elements), dim=dim, universal=verdict
    )
    for label in result.labels():
        emit("label", label)
    return EXIT_OK


def cmd_certify(args, emit) -> int:
    gens = _parse_generators(args.generators, args.ambient)
    target = parse_label(args.target, args.ambient)
    serialized = certificate(close(gens, cap=args.cap), target).to_text()
    sys.stdout.write(serialized)
    # the replay consumes the serialized form, so the text format itself is
    # exercised on every run
    cert = Certificate.from_text(serialized)
    if args.ambient % 2:
        emit("replay", skipped=True, reason="odd-ambient")
        return EXIT_OK
    report = replay_certificate(cert)
    ok = report.deviation == 0.0  # the replay is exact
    emit("replay", deviation=report.deviation, steps=report.steps, ok=ok)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify_rep(args, emit) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    _check_qubits(args.qubits, args.cap)
    from .matrices import verify_representation  # loads numpy

    checks = verify_representation(args.qubits, seed=args.seed)
    for check in checks:
        emit("check", name=check.name, deviation=check.deviation, tolerance=check.tolerance,
             status="pass" if check.passed else "fail")
    failed = sum(not check.passed for check in checks)
    emit("verify", qubits=args.qubits, checks=len(checks), failed=failed)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_gateset(args, emit) -> int:
    _check_ambient(2 * args.qubits)
    gens = chain_generators(2 * args.qubits)
    result = close(gens, cap=args.cap)  # before any output: a capped run prints nothing
    facts = [pauli_factorization(el) for el in gens.elements]
    for el, fact in zip(gens.elements, facts):
        support = ",".join(map(str, fact.support())) or "-"
        emit(
            "element", label=format_element(el), pauli=str(fact), support=support, local=fact.local
        )
    emit(
        "gateset", qubits=args.qubits, count=len(facts), dim=result.dimension,
        universal=result.universal, local=all(fact.local for fact in facts),
    )
    return EXIT_OK


def _read_matrix_text(path: str, qubits: int) -> str:
    """The matrix file of ``synth``, read up to 64 bytes per entry of the
    2^n x 2^n matrix (a %.17g re,im pair and its separator take at most 50)."""
    dim = 2 ** max(qubits, 1)  # decompose refuses n < 1 with its own message
    budget = 64 * dim * dim
    chunks, size = [], 0  # read(n) allocates n bytes up front, so read in chunks
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            size += len(chunk)
            if size > budget:
                raise CapExceededError(
                    f"input {path} exceeds {budget} bytes, 64 per entry of a {dim}x{dim} matrix"
                )
            chunks.append(chunk)
    try:
        return b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input {path} is not UTF-8 text (byte {exc.start})") from None


def cmd_synth(args, emit) -> int:
    _check_qubits(args.qubits, args.cap)
    from .matrices import parse_matrix  # loads numpy
    from .synthesis import synthesize

    h = parse_matrix(_read_matrix_text(args.input, args.qubits))
    seq = synthesize(h, args.steps, args.qubits)
    serialized = seq.to_text()
    if args.output:
        Path(args.output).write_text(serialized)
    else:
        sys.stdout.write(serialized)
    emit(
        "synth", qubits=args.qubits, steps=args.steps, gates=len(seq.block) * seq.repeats,
        error=float(seq.error),
    )
    return EXIT_OK


def cmd_power(args, emit) -> int:
    angle = _angle_value(args.angle)
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise UsageError(f"--eps must be positive and finite, got {args.eps}")
    result = irrational_power(angle, args.eps, cap=args.cap)
    emit("power", angle=angle, eps=args.eps, N=result.applications, residual=result.residual,
         signed=result.signed_angle)
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
        p.add_argument("--cap", type=_INT, default=cap[0], help=cap[1])
        p.set_defaults(handler=handler)
        return p

    # argparse reads a word such as -e[0] as a flag; after "--" every word is a generator
    gens_help = "elements like e[0] or i*e[0,1,2]; after -- also -e[0] or -i*e[1]"
    p = command("closure", cmd_closure, LABEL_CAP, "close a generator set")
    p.add_argument("-m", "--ambient", type=_INT, required=True, help="generator count")
    p.add_argument("generators", nargs="+", help=gens_help)

    p = command("certify", cmd_certify, LABEL_CAP, "derive one label and replay it")
    p.add_argument("-m", "--ambient", type=_INT, required=True)
    p.add_argument("--target", required=True, help="target label like e[0,1]")
    p.add_argument("generators", nargs="+", help=gens_help)

    p = command("verify-rep", cmd_verify_rep, QUBIT_CAP, "run the dense-oracle sweep")
    p.add_argument("--seed", type=_INT, default=0, help="seed for sampled sweeps (>= 0)")
    p.add_argument("-n", "--qubits", type=_INT, required=True)

    p = command("gateset", cmd_gateset, LABEL_CAP, "list the local universal gate set")
    p.add_argument("-n", "--qubits", type=_INT, required=True)

    p = command("synth", cmd_synth, QUBIT_CAP, "synthesize exp(i*H) from a matrix file")
    p.add_argument("-n", "--qubits", type=_INT, required=True)
    p.add_argument("-N", "--steps", type=_INT, required=True, help="product-formula repetitions")
    p.add_argument("-i", "--input", required=True, help="Hermitian matrix text file")
    p.add_argument("-o", "--output", default=None, help="gate sequence output file")

    p = command("power", cmd_power, POWER_CAP, "minimal power near a full turn")
    p.add_argument("--angle", required=True, help="gate angle (float or k*pi/m)")
    p.add_argument("--eps", type=_FLOAT, required=True, help="residual tolerance")
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
    emit = functools.partial(_emit, 17 if args.format == "records" else 6)
    try:
        code = args.handler(args, emit)
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
    except MemoryError as exc:  # a --cap set past what the machine can allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"cap exceeded: out of memory{detail}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:  # unreachable targets and ambient mismatches too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
