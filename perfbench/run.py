#!/usr/bin/env python3
"""cliffgate benchmark.

    python3 perfbench/run.py --workload {closure,dense,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a cliffgate checkout; it imports the package from
``src/``.  Each workload is one client in a closed loop in this process:
the next job starts only when the previous one has finished, and no
threads are added.  Inputs come from ``--seed``; the program sees only the
generated generator texts, matrices, angles and argv.

The workload's seeded inputs form one deck of jobs, one job of every class
of the workload, and the loop runs the whole deck again and again, in
rounds, until it has timed ``--seconds`` of jobs and at least MIN_ROUNDS
rounds.  Checks run between jobs, outside the timed region: the first run
of an input is checked against closed forms and oracles, and every later
run of the same input must give the same output.  A job fails if it raises
or fails a check.

Times are in reference seconds (see speed.py): after every job the run
times a fixed kernel that touches no cliffgate code, and every wall time is
scaled by the kernel runs just before and just after it, so that the
host's changes of speed cancel.  The workload names its kernel
(``KERNEL``; ``cpu`` unless it says otherwise).  A job's latency is the
median of its runs; jobs_per_s is the deck's job count over the sum of its
job latencies, and job_p50_s and job_p90_s are percentiles of the job
latencies.  The result file also holds the unscaled figures.

``--trace 0`` prints the end-to-end metrics: jobs_per_s, job_p50_s,
job_p90_s, peak_rss_mb and setup_s (import, input generation and one
warm-up job of each kind; the median of at least SETUP_SAMPLES set-ups in
fresh processes spread between rounds).
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics, computed from spans recorded around the benchmark's own
calls into each cliffgate module; ``trace.overhead_ratio`` is untraced over
traced jobs_per_s, both unscaled.

BLAS runs one thread unless the environment says otherwise, here and in
every child process, so that the one client's load stays on one core.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, stamped with the
git revision, nproc, the Python and numpy versions and the BLAS thread
count, and the spans of a traced run are written to perfbench/work/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import NullTracer, Tracer, self_times
from speed import KERNELS, REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKLOADS = ("closure", "dense", "cli")

# numpy is imported later, by the workload modules and in child processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

MIN_ROUNDS = 4  # the traced run splits them between untraced and traced
SETUP_SAMPLES = 3  # at least; more while set-ups take under SETUP_SHARE of job time
SETUP_SHARE = 0.1

END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _calls(name):
    return name + ".calls", "count", lambda L: L.count(name, "calls")


def _busy(name):
    return name + ".busy_s", "s", lambda L: L.busy(name)


def _wall(sub):
    return f"cli.{sub}.wall_s", "s", lambda L: L.median_wall(f"cli.{sub}")


# (metric, unit, value from a Layers view of the traced spans)
PER_LAYER = [
    _busy("algebra.parse_element"),
    _calls("algebra.commutator"),
    _busy("algebra.commutator"),
    ("algebra.commutator.ops_per_s", "1/s",
     lambda L: L.count("algebra.commutator", "calls") / max(L.busy("algebra.commutator"), 1e-12)),
    _calls("closure.close"),
    _busy("closure.close"),
    ("closure.labels_reached", "count", lambda L: L.count("closure.close", "labels")),
    ("closure.max_depth", "count", lambda L: L.max("closure.close", "depth")),
    _busy("closure.certificate"),
    ("closure.cert_steps", "count",
     lambda L: L.count("closure.certificate", "steps") / max(L.count("closure.certificate", "calls"), 1)),
    _busy("closure.cert_text"),
    _calls("matrices.decompose"),
    _busy("matrices.decompose"),
    _busy("matrices.expm_hermitian"),
    _busy("matrices.verify_representation"),
    _calls("matrices.replay_certificate"),
    _busy("matrices.replay_certificate"),
    _calls("synthesis.trotter"),
    _busy("synthesis.trotter"),
    ("synthesis.trotter.gates", "count", lambda L: L.count("synthesis.trotter", "gates")),
    _busy("synthesis.sequence_matrix"),
    _busy("synthesis.commutator_gate"),
    _calls("synthesis.irrational_power"),
    _busy("synthesis.irrational_power"),
    ("cli.startup_s", "s", lambda L: L.median_wall("cli.startup")),
    *(_wall(sub) for sub in ("closure", "certify", "verify-rep", "gateset", "synth", "power")),
    ("cli.exit_mismatch", "count", lambda L: L.count(None, "mismatch")),
    ("trace.overhead_ratio", "1", lambda L: L.overhead_ratio),
]


class Layers:
    """Per-layer sums over traced spans; busy time is self time."""

    def __init__(self, spans, overhead_ratio):
        self.spans = spans
        self.own = self_times(spans)
        self.overhead_ratio = overhead_ratio

    def _named(self, name):
        return [s for s in self.spans if name is None or s.name == name]

    def count(self, name, key):
        return sum(s.counts.get(key, 0) for s in self._named(name))

    def max(self, name, key):
        return max((s.counts.get(key, 0) for s in self._named(name)), default=0)

    def busy(self, name):
        return sum(self.own[s.sid] for s in self._named(name))

    def median_wall(self, name):
        walls = [s.end - s.start for s in self._named(name)]
        return statistics.median(walls) if walls else 0.0


@dataclass
class Stats:
    """Job runs by deck slot; a slot's latency is the median of its runs."""

    jobs: int = 0
    failed: int = 0
    busy: float = 0.0
    # slot -> (wall seconds, index of the last kernel run before it) of each run
    runs: dict = field(default_factory=dict)
    bad: set = field(default_factory=set)  # slots with a failed run
    child_rss_kb: int = 0

    def add(self, slot, seconds: float, at: int, ok: bool, out) -> None:
        self.jobs += 1
        self.failed += not ok
        self.busy += seconds
        self.runs.setdefault(slot, []).append((seconds, at))
        if not ok:
            self.bad.add(slot)
        self.child_rss_kb = max(self.child_rss_kb, getattr(out, "maxrss_kb", 0))

    def summary(self, timed) -> dict:
        """The timing metrics, with ``timed(seconds, at)`` giving each run's time."""
        medians = {s: statistics.median(timed(*run) for run in t) for s, t in self.runs.items()}
        # a job that failed once counts as missing every latency limit
        lat = sorted(math.inf if s in self.bad else t for s, t in medians.items())
        return dict(
            jobs_per_s=(len(lat) - len(self.bad)) / sum(medians.values()),
            job_p50_s=statistics.median(lat),
            job_p90_s=lat[math.ceil(0.9 * len(lat)) - 1],  # nearest rank
        )


def attempt(job, tr):
    """Run one job; returns (output, error text or None, seconds)."""
    start = time.perf_counter()
    try:
        out, error = job.run(tr), None
    except Exception as exc:  # the loop goes on; the job counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - start


class Checker:
    """Full checks on the first run of each input, equal output afterwards."""

    def __init__(self):
        self.seen = {}
        self.messages = []

    def __call__(self, key, job, out, error) -> bool:
        if error is None:
            try:
                digest = job.digest(out)
                if key not in self.seen:
                    self.seen[key] = (digest, job.check(out))
                first, errors = self.seen[key]
                if not job.same(first, digest):
                    errors = ["output differs from the first run of the same input"]
            except Exception as exc:  # a check that raises fails the job
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            errors = [error]
        self.messages += errors
        return not errors


def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    """Import, input generation and one warm-up job of each kind, timed.

    Each workload's ``build`` returns its deck in class order, cheapest
    class of each kind first; the first job of each kind warms it up.
    """
    start = time.perf_counter()
    module = importlib.import_module(f"wl_{workload}")
    deck = module.build(seed, smoke, workdir)
    warmup = {}
    for job in deck:
        warmup.setdefault(job.kind, job)
    warm = [(job, attempt(job, NullTracer())) for job in warmup.values()]
    random.Random(f"order:{workload}:{seed}").shuffle(deck)
    return time.perf_counter() - start, module, deck, warm


def setup_in_fresh_process(args) -> float:
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def blas_threads() -> str:
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def stamp() -> dict:
    import numpy

    return dict(git=git_revision(), nproc=os.cpu_count(), python=platform.python_version(),
                numpy=numpy.__version__, blas_threads=blas_threads())


def bench(args, workdir: Path) -> dict:
    _, module, deck, warm = setup(args.workload, args.seed, args.smoke, workdir)
    import cliffgate

    if not Path(cliffgate.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported cliffgate from {cliffgate.__file__}, not {SRC}")

    check = Checker()
    for job, (out, error, _) in warm:
        check(deck.index(job), job, out, error)
    warm_ok = not check.messages

    tracer = Tracer() if args.trace else None
    untraced, traced = Stats(), Stats()
    min_rounds = (2 if args.trace else 1) if args.smoke else MIN_ROUNDS
    deadline = time.perf_counter() + 3 * args.seconds + 30
    # (wall seconds, process kernel runs before and after) of set-ups in fresh
    # processes; the in-process kernel does not follow another process's speed
    setups = []
    want_setups = 0 if args.trace else 1 if args.smoke else SETUP_SAMPLES
    kind = getattr(module, "KERNEL", "cpu")
    kernels = [KERNELS[kind]()]

    def sample_setup():
        before = KERNELS["process"]()
        seconds = setup_in_fresh_process(args)
        setups.append((seconds, before, KERNELS["process"]()))

    r = 0
    while time.perf_counter() < deadline and (
        untraced.busy + traced.busy < args.seconds or r < min_rounds
    ):
        on = tracer is not None and r % 2 == 1
        stats = traced if on else untraced
        for i, job in enumerate(deck):
            if on:
                tracer.job += 1
                with tracer.span(f"job.{job.kind}"):
                    out, error, dt = attempt(job, tracer)
            else:
                out, error, dt = attempt(job, NullTracer())
            kernels.append(KERNELS[kind]())
            stats.add(i, dt, len(kernels) - 2, check(i, job, out, error), out)
        r += 1
        # set-ups spread over the run
        while want_setups and (
            len(setups) < min(r, want_setups)
            or sum(s[0] for s in setups) < SETUP_SHARE * (untraced.busy + traced.busy)
        ):
            sample_setup()
    while len(setups) < want_setups:
        sample_setup()

    def in_reference_s(seconds, at):
        # the kernel's speed just before and just after the work
        return seconds * REFERENCE_S[kind] * 2 / (kernels[at] + kernels[at + 1])

    def wall(seconds, at):
        return seconds

    attempted = untraced.jobs + traced.jobs
    failed = untraced.failed + traced.failed
    if args.trace:
        if hasattr(module, "probe"):
            tracer.job += 1
            with tracer.span("probe"):
                module.probe(tracer, workdir)
        ratio = untraced.summary(wall)["jobs_per_s"] / traced.summary(wall)["jobs_per_s"]
        unscaled = {}
        layers = Layers(tracer.spans, ratio)
        metrics = {name: {"value": fn(layers), "unit": unit} for name, unit, fn in PER_LAYER}
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = dict(
            untraced.summary(in_reference_s),
            # cli jobs are child processes: their own peak counts, not this process's
            peak_rss_mb=(untraced.child_rss_kb or self_rss_kb) / 1024,
            setup_s=statistics.median(
                seconds * REFERENCE_S["process"] * 2 / (before + after)
                for seconds, before, after in setups
            ),
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        unscaled = dict(untraced.summary(wall), setup_s=statistics.median(s[0] for s in setups))
    return dict(
        correct=warm_ok and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        rounds=r,
        failed_ratio=failed / attempted,
        unscaled=unscaled,
        kernel=dict(kind=kind, reference_s=REFERENCE_S[kind], runs=kernels),
        setup_samples=setups,
        job_runs=[dict(kind=job.kind, runs=untraced.runs.get(i, [])) for i, job in enumerate(deck)],
        messages=check.messages[:20],
        stamp=stamp(),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cliffgate" / "__init__.py").is_file():
        print(f"error: no cliffgate sources at {SRC}; run from a cliffgate checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, args.smoke, workdir)[0]}))
            return 0
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(result, indent=1) + "\n")
    for message in result["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['rounds']} rounds, {result['attempted']} jobs, {result['failed']} failed "
          f"(failed_ratio {result['failed_ratio']:.4g})")
    for metric, value in result["metrics"].items():
        print(f"  {metric:36s} {value['value']:.6g} {value['unit']}")
    kernel = result["kernel"]
    print(f"{kernel['kind']} kernel: median {statistics.median(kernel['runs']):.4g} s of "
          f"{len(kernel['runs'])} runs, reference {kernel['reference_s']:g} s")
    if result["unscaled"]:
        print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items()))
    print("stamp " + " ".join(f"{k}={v}" for k, v in result["stamp"].items()))
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
