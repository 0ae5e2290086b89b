"""Command-line front end: closure, certification, representation checks,
gate-set listing, synthesis and power search as reproducible batch commands.

Two output styles: ``human`` (6 significant digits) and ``records`` (one
space-separated key=value record per line, full 17-digit precision).  With
fixed flags and seed the records output is byte-identical across runs.

Exit codes: 0 success, 2 parse/usage error, 3 precondition failure,
4 verification failure, 5 cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .algebra import (
    AmbientMismatchError,
    ParseError,
    format_element,
    parse_element,
    parse_label,
)
from .closure import Certificate, GeneratorSet, UnreachableTargetError, certificate, close
from .matrices import (
    hermiticity_defect,
    parse_matrix,
    replay_certificate,
    verify_representation,
)
from .synthesis import CapExceededError, irrational_power, local_gate_set, synthesize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4
EXIT_CAP = 5

DEFAULT_AMBIENT_CAP = 64
DEFAULT_MATRIX_CAP = 6  # qubits


@dataclass
class RunConfig:
    records: bool
    tolerance: float
    seed: int
    cap: int | None

    def fmt(self, value: float) -> str:
        return f"{value:.17g}" if self.records else f"{value:.6g}"


class Reporter:
    def __init__(self, config: RunConfig):
        self.config = config

    def record(self, kind: str, **fields) -> None:
        if not self.config.records:
            return
        parts = [kind]
        for key, value in fields.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = self.config.fmt(value)
            parts.append(f"{key}={value}")
        print(" ".join(parts))

    def human(self, text: str) -> None:
        if not self.config.records:
            print(text)


def _angle_value(text: str) -> float:
    """Accept a finite float or a simple multiple of pi such as pi/2 or -2*pi/3."""
    try:
        value = float(text)
    except ValueError:
        m = re.fullmatch(r"\s*(-)?(\d*\.?\d*)\*?pi(?:/(\d+\.?\d*))?\s*", text)
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
    elements = []
    for pos, text in enumerate(texts):
        try:
            elements.append(parse_element(text, ambient))
        except ParseError as exc:
            raise ParseError(f"generator {pos + 1}: column {exc.column}: {exc}", exc.column)
    return GeneratorSet(ambient, tuple(elements))


def cmd_closure(args, config: RunConfig) -> int:
    cap = config.cap if config.cap is not None else DEFAULT_AMBIENT_CAP
    if args.ambient > cap:
        raise CapExceededError(f"ambient {args.ambient} exceeds the symbolic cap {cap}")
    if args.ambient < 1:
        raise ValueError("ambient must be >= 1")
    gens = _parse_generators(args.generators, args.ambient)
    result = close(gens)
    dim = result.dimension
    if args.ambient % 2:
        verdict = "unsupported"
    else:
        verdict = "true" if dim == 1 << args.ambient else "false"
    rep = Reporter(config)
    rep.record(
        "closure",
        ambient=args.ambient,
        generators=len(gens.elements),
        **{"dim": dim, "universal": verdict},
    )
    rep.human(f"dim={dim} universal={verdict}")
    if dim <= args.list_limit:
        labels = result.labels()
        if config.records:
            for label in labels:
                print(f"label {label}")
        else:
            print("reached: " + " ".join(str(l) for l in labels))
    else:
        rep.record("labels", suppressed=True, count=dim)
        rep.human(f"(label list suppressed: {dim} > limit {args.list_limit})")
    return EXIT_OK


def cmd_certify(args, config: RunConfig) -> int:
    gens = _parse_generators(args.generators, args.ambient)
    target = parse_label(args.target, args.ambient)
    serialized = certificate(gens, target).to_text()
    sys.stdout.write(serialized)
    # the replay consumes the serialized form, so the text format itself is
    # exercised on every run
    cert = Certificate.from_text(serialized)
    rep = Reporter(config)
    cap = config.cap if config.cap is not None else DEFAULT_MATRIX_CAP
    if args.ambient % 2:
        rep.record("replay", skipped=True, reason="odd-ambient")
        rep.human("replay skipped: odd ambient has no matrix form")
        return EXIT_OK
    if args.ambient > 2 * cap:
        rep.record("replay", skipped=True, reason="cap", cap=2 * cap)
        rep.human(f"replay skipped: ambient {args.ambient} above matrix cap {2 * cap}")
        return EXIT_OK
    report = replay_certificate(cert, tol=config.tolerance)
    ok = report.deviation <= config.tolerance
    rep.record("replay", deviation=report.deviation, steps=report.steps, ok=ok)
    rep.human(
        f"replay deviation {config.fmt(report.deviation)} over {report.steps} steps: "
        + ("ok" if ok else "FAILED")
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify_rep(args, config: RunConfig) -> int:
    cap = config.cap if config.cap is not None else DEFAULT_MATRIX_CAP
    if args.qubits > cap:
        raise CapExceededError(f"{args.qubits} qubits exceeds the matrix cap {cap}")
    if args.qubits < 1:
        raise ValueError("qubit count must be >= 1")
    checks = verify_representation(
        args.qubits,
        seed=config.seed,
        tol_pipeline=config.tolerance,
    )
    rep = Reporter(config)
    failed = 0
    for check in checks:
        status = "pass" if check.passed else "fail"
        failed += not check.passed
        if config.records:
            rep.record(
                "check",
                name=check.name,
                deviation=check.deviation,
                tolerance=check.tolerance,
                status=status,
            )
        else:
            print(
                f"{status.upper():4s} {check.name:26s} max deviation {config.fmt(check.deviation)}"
                f" (tolerance {config.fmt(check.tolerance)})"
            )
    rep.record("verify", qubits=args.qubits, checks=len(checks), failed=failed)
    rep.human(f"{len(checks) - failed}/{len(checks)} checks passed at n={args.qubits}")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_gateset(args, config: RunConfig) -> int:
    cap = config.cap if config.cap is not None else DEFAULT_MATRIX_CAP
    if args.qubits > cap:
        raise CapExceededError(f"{args.qubits} qubits exceeds the matrix cap {cap}")
    gens, report = local_gate_set(args.qubits)
    rep = Reporter(config)
    for entry in report.entries:
        support = ",".join(str(q) for q in entry.support)
        if config.records:
            rep.record(
                "element",
                label=format_element(entry.element),
                pauli=str(entry.factorization),
                support=support or "-",
                local=entry.local,
            )
        else:
            print(
                f"{format_element(entry.element):16s} {str(entry.factorization):12s} "
                f"qubits [{support}] {'local' if entry.local else 'NONLOCAL'}"
            )
    rep.record(
        "gateset",
        qubits=args.qubits,
        count=len(report.entries),
        **{"dim": report.dimension, "universal": report.universal, "local": report.all_local},
    )
    rep.human(
        f"{len(report.entries)} elements, closure dim={report.dimension}, "
        f"universal={'true' if report.universal else 'false'}"
    )
    return EXIT_OK


def cmd_synth(args, config: RunConfig) -> int:
    cap = config.cap if config.cap is not None else DEFAULT_MATRIX_CAP
    if args.qubits > cap:
        raise CapExceededError(f"{args.qubits} qubits exceeds the matrix cap {cap}")
    text = Path(args.input).read_text()
    h = parse_matrix(text)
    if h.shape[0] != 2**args.qubits:
        raise ValueError(
            f"matrix dimension {h.shape[0]} does not match {args.qubits} qubits (need {2**args.qubits})"
        )
    defect = hermiticity_defect(h)
    if defect > config.tolerance:
        raise ValueError(
            f"input matrix is not Hermitian: defect {config.fmt(defect)} exceeds "
            f"tolerance {config.fmt(config.tolerance)}"
        )
    seq = synthesize(h, args.steps, args.qubits, tol=config.tolerance)
    serialized = seq.to_text()
    if args.output:
        Path(args.output).write_text(serialized)
    else:
        sys.stdout.write(serialized)
    rep = Reporter(config)
    rep.record(
        "synth",
        qubits=args.qubits,
        steps=args.steps,
        gates=len(seq.gates),
        error=float(seq.error),
    )
    rep.human(f"{len(seq.gates)} gates, measured error {config.fmt(float(seq.error))}")
    return EXIT_OK


def cmd_power(args, config: RunConfig) -> int:
    angle = _angle_value(args.angle)
    if not (math.isfinite(args.eps) and args.eps > 0):
        raise UsageError(f"--eps must be positive and finite, got {args.eps}")
    cap = config.cap if config.cap is not None else 10**9
    result = irrational_power(angle, args.eps, cap=cap)
    rep = Reporter(config)
    rep.record(
        "power",
        angle=angle,
        eps=float(args.eps),
        N=result.applications,
        residual=result.residual,
        signed=result.signed_angle,
    )
    rep.human(
        f"N={result.applications} residual={config.fmt(result.residual)} "
        f"(signed {config.fmt(result.signed_angle)})"
    )
    return EXIT_OK


class UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "records"), default="human", help="output style"
    )
    common.add_argument("--tolerance", type=float, default=1e-10, help="numeric tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")
    common.add_argument("--cap", type=int, default=None, help="override the size/search cap")

    parser = argparse.ArgumentParser(
        prog="cliffgate",
        description="Clifford basis-element algebra, commutator closure and gate synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", parents=[common], help="close a generator set")
    p.add_argument("-m", "--ambient", type=int, required=True, help="generator count")
    p.add_argument("--list-limit", type=int, default=128, help="suppress label list above this")
    p.add_argument("generators", nargs="+", help="elements like e[0] or i*e[0,1,2]")
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("certify", parents=[common], help="derive one label and replay it")
    p.add_argument("-m", "--ambient", type=int, required=True)
    p.add_argument("--target", required=True, help="target label like e[0,1]")
    p.add_argument("generators", nargs="+")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("verify-rep", parents=[common], help="run the dense-oracle sweep")
    p.add_argument("-n", "--qubits", type=int, required=True)
    p.set_defaults(handler=cmd_verify_rep)

    p = sub.add_parser("gateset", parents=[common], help="list the local universal gate set")
    p.add_argument("-n", "--qubits", type=int, required=True)
    p.set_defaults(handler=cmd_gateset)

    p = sub.add_parser("synth", parents=[common], help="synthesize exp(i*H) from a matrix file")
    p.add_argument("-n", "--qubits", type=int, required=True)
    p.add_argument("-N", "--steps", type=int, required=True, help="product-formula repetitions")
    p.add_argument("-i", "--input", required=True, help="Hermitian matrix text file")
    p.add_argument("-o", "--output", default=None, help="gate sequence output file")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("power", parents=[common], help="minimal power near a full turn")
    p.add_argument("--angle", required=True, help="gate angle (float or k*pi/m)")
    p.add_argument("--eps", type=float, required=True, help="residual tolerance")
    p.set_defaults(handler=cmd_power)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        print("error: --tolerance must be positive and finite", file=sys.stderr)
        return EXIT_PARSE
    config = RunConfig(
        records=args.format == "records",
        tolerance=args.tolerance,
        seed=args.seed,
        cap=args.cap,
    )
    try:
        return args.handler(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UnreachableTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (AmbientMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
