"""The ``closure`` workload: symbolic closure jobs, run in process.

Each job parses generator texts, closes the set, builds the structure
constant table [s, x] for every generator s and every reached label x,
extracts certificates for a seeded sample of targets, and round-trips
the certificates through their text form.

The sets mix quadratic-sector sets (orders <= 2), whose closure stays in
orders one and two, with sets that also hold one label of order 3 or 4 and
turn universal.  Every set's reached labels have a closed form, which the
checks compare against: a set of order-1 and order-2 labels is the edge
set of a graph on m+1 vertices (e[i] joins i to the extra vertex m,
e[i,j] joins i and j), and it reaches exactly the labels of the edges
inside each connected component, so the dimension is the sum of
c(c-1)/2 over components of c vertices; that is m(m+1)/2 when connected.
A connected quadratic part plus one label of order 3 or 4 reaches all 2^m
labels (2^m - 1 for odd m, whose top label is central).
"""

from __future__ import annotations

import random

from cliffgate import (
    BasisLabel,
    Certificate,
    GeneratorSet,
    certificate,
    close,
    commutator,
    parse_element,
    replay_certificate,
)

# One job per class in the deck, as (kind, family, m, |S|).  "stock"
# holds the universal and chain sets, "generators" the generators-only
# sets; the first class of each kind is its cheapest and is the warm-up.
# Costs are spread geometrically from milliseconds to about a second, so
# that the latency percentiles fall among classes of different cost.  The
# stock sets stop at m = 8: one m = 9 job takes 1.5 s, half a deck, so
# jobs_per_s would rest on that one job's timing.
CLASSES = [
    ("quadratic", "quadratic", 16, 8),
    ("quadratic", "quadratic", 24, 16),
    ("quadratic", "quadratic", 24, 20),
    ("stock", "universal", 6, None),
    ("universal", "universal-random", 6, 9),
    ("generators", "generators", 12, None),
    ("quadratic", "quadratic", 13, 18),
    ("stock", "chain", 7, None),
    ("universal", "universal-random", 7, 12),
    ("quadratic", "quadratic", 14, 21),
    ("generators", "generators", 15, None),
    ("quadratic", "quadratic", 16, 24),
    ("generators", "generators", 17, None),
    ("quadratic", "quadratic", 18, 30),
    ("generators", "generators", 20, None),
    ("stock", "chain", 8, None),
    ("universal", "universal-random", 8, 10),
    ("stock", "universal", 8, None),
    ("quadratic", "quadratic", 22, 33),
    ("generators", "generators", 24, None),
]
SMOKE_CLASSES = [
    ("stock", "universal|chain", 4, None),
    ("generators", "generators", 5, None),
    ("quadratic", "quadratic", 6, 3),
    ("universal", "universal-random", 5, 7),
]
TARGETS = 4
AUDIT_MAX_M = 8  # audit_closed is O(dim^2) like the seed's close
REPLAY_MAX_M = 8  # dense replay fills the basis-matrix cache of m/2 qubits
TOL = 1e-10


def _text(indices, sign: int) -> str:
    """Hermitized element text for an ascending index list, times +-1."""
    k = len(indices)
    phase = (k * (k - 1) // 2) % 2 + (2 if sign < 0 else 0)
    prefix = ("", "i*", "-", "-i*")[phase]
    return prefix + "e[" + ",".join(map(str, indices)) + "]"


def _edge_indices(a: int, b: int, m: int) -> list[int]:
    return [a] if b == m else [a, b]


def _random_tree(rng: random.Random, vertices: list[int]) -> list[tuple[int, int]]:
    order = vertices[:]
    rng.shuffle(order)
    return [tuple(sorted((v, rng.choice(order[:i])))) for i, v in enumerate(order) if i]


def _components_reached(edges, m: int) -> set[int]:
    parent = list(range(m + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in range(m + 1):
        groups.setdefault(find(v), []).append(v)
    masks = set()
    for group in groups.values():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                masks.add(sum(1 << k for k in _edge_indices(a, b, m)))
    return masks


def _universal_reached(m: int) -> set[int]:
    top = (1 << m) - 1
    return {mask for mask in range(1 << m) if not (m % 2 and mask == top)}


def _quadratic_edges(rng: random.Random, m: int, size: int) -> list[tuple[int, int]]:
    """``size`` distinct edges on m+1 vertices: a spanning tree plus random
    extra edges when size >= m, else a forest of near-equal trees."""
    vertices = list(range(m + 1))
    if size >= m:
        edges = set(_random_tree(rng, vertices))
        while len(edges) < size:
            a, b = rng.sample(vertices, 2)
            edges.add((min(a, b), max(a, b)))
        return sorted(edges, key=lambda e: rng.random())
    rng.shuffle(vertices)
    parts = m + 1 - size
    edges = []
    for p in range(parts):
        edges += _random_tree(rng, vertices[p::parts])
    return edges


class ClosureJob:
    def __init__(self, kind, m, texts, expected, targets, audit):
        self.kind = kind
        self.m = m
        self.texts = texts
        self.expected = expected
        self.targets = [BasisLabel(mask, m) for mask in targets]
        self.audit = audit

    def run(self, tr):
        m = self.m
        with tr.span("algebra.parse_element") as c:
            elements = [parse_element(t, m) for t in self.texts]
            c["calls"] = len(elements)
        gens = GeneratorSet(m, tuple(elements))
        with tr.span("closure.close") as c:
            result = close(gens)
            c["calls"] = 1
            c["labels"] = result.dimension
            c["depth"] = max(result.depth.values())
        reps = [result.representatives[label] for label in result.labels()]
        with tr.span("algebra.commutator") as c:
            table = [[commutator(s, x) for x in reps] for s in elements]
            c["calls"] = len(elements) * len(reps)
        with tr.span("closure.certificate") as c:
            certs = [certificate(result, t) for t in self.targets]
            c["calls"] = len(certs)
            c["steps"] = sum(len(cert.steps) for cert in certs)
        with tr.span("closure.cert_text") as c:
            texts = [cert.to_text() for cert in certs]
            parsed = [Certificate.from_text(t) for t in texts]
            c["calls"] = len(texts)
        return result, table, texts, parsed

    def check(self, out) -> list[str]:
        result, table, texts, parsed = out
        errors = []
        reached = {label.mask for label in result.representatives}
        if reached != self.expected:
            errors.append(
                f"m={self.m}: reached {len(reached)} labels, the closed form gives "
                f"{len(self.expected)} ({len(reached ^ self.expected)} differ)"
            )
        if any(not c.is_zero and c.label.mask not in reached for row in table for c in row):
            errors.append(f"m={self.m}: a structure constant leaves the closure")
        if self.audit and not result.audit_closed():
            errors.append(f"m={self.m}: audit_closed found a missing commutator")
        for target, text, cert in zip(self.targets, texts, parsed):
            cert.validate()
            if cert.target != target or cert.to_text() != text:
                errors.append(f"certificate for {target} changes in a text round trip")
            if self.m % 2 == 0 and self.m <= REPLAY_MAX_M:
                dev = replay_certificate(cert, tol=TOL).deviation
                if dev > TOL:
                    errors.append(f"certificate for {target} replays with deviation {dev:g}")
        return errors

    def digest(self, out):
        result, table, texts, _ = out
        reps = sorted((k.mask, v.phase, v.pow2) for k, v in result.representatives.items())
        cells = tuple(
            (c.is_zero, c.label.mask, c.phase, c.pow2) for row in table for c in row
        )
        return hash((tuple(reps), cells, tuple(texts)))

    def same(self, a, b) -> bool:
        return a == b


def generator_set(rng: random.Random, family: str, m: int, size) -> tuple[list[str], set[int]]:
    """Seeded generator texts of one family and the label masks they reach."""
    if family == "universal|chain":
        family = rng.choice(("universal", "chain"))
    if family == "universal":
        idx = [[k] for k in range(m)] + [[0, 1, 2]]
        expected = _universal_reached(m)
    elif family == "chain":
        idx = [[0]] + [[k - 1, k] for k in range(1, m)] + [[0, 1, 2]]
        expected = _universal_reached(m)
    elif family == "generators":
        idx = [[k] for k in range(m)]
        expected = _components_reached([(k, m) for k in range(m)], m)
    elif family == "quadratic":
        edges = _quadratic_edges(rng, m, size)
        idx = [_edge_indices(a, b, m) for a, b in edges]
        expected = _components_reached(edges, m)
    else:  # universal-random: connected quadratic part plus one order-3/4 label
        edges = _quadratic_edges(rng, m, size - 1)
        extra = sorted(rng.sample(range(m), rng.choice((3, 4))))
        idx = [_edge_indices(a, b, m) for a, b in edges]
        idx.insert(rng.randrange(len(idx) + 1), extra)
        expected = _universal_reached(m)
    return [_text(i, rng.choice((1, -1))) for i in idx], expected


def _job(rng: random.Random, kind, family, m, size) -> ClosureJob:
    texts, expected = generator_set(rng, family, m, size)
    targets = rng.sample(sorted(expected), min(TARGETS, len(expected)))
    random_set = family in ("quadratic", "universal-random")
    return ClosureJob(kind, m, texts, expected, targets, random_set and m <= AUDIT_MAX_M)


def build(seed: int, smoke: bool, workdir) -> list[ClosureJob]:
    """The seeded deck, one job per class, in class order."""
    rng = random.Random(f"closure:{seed}")
    return [_job(rng, *cls) for cls in (SMOKE_CLASSES if smoke else CLASSES)]
