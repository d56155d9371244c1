"""k-uniform hypergraphs on dense integer vertices, partitions, and seeded edge sampling.

Vertices are 0..n-1. Edges are k-element sorted tuples with set semantics.
Everything here is immutable, hashable where it matters, and deterministic:
functions that need randomness take an integer seed and use a named generator
(see GENERATOR_ID) so byte-identical reruns are possible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, product
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, ...]

# Identifier of the pseudorandom bit generator recorded in every run report.
GENERATOR_ID = "numpy-pcg64"


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph: uniformity k >= 1, n >= 0 vertices, edges as sorted k-tuples."""

    k: int
    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("uniformity k must be >= 1")
        if self.n < 0:
            raise ValueError("vertex count n must be >= 0")
        # One numpy pass names the first bad edge; the array is not kept (see _rows).
        k, n, edges = self.k, self.n, self.edges
        if operator.countOf(map(len, edges), k) != len(edges):
            raise _edge_error(next(e for e in edges if len(e) != k), k, n)
        try:
            a = _edge_array(edges, k)
        except OverflowError:  # vertex labels are int64
            huge = next(e for e in edges if not all(-(2**63) <= v < 2**63 for v in e))
            raise _edge_error(huge, k, n) from None
        bad = (a[:, 1:] <= a[:, :-1]).any(axis=1) | (a[:, 0] < 0) | (a[:, -1] >= n)
        if bad.any():
            raise _edge_error(next(islice(edges, int(bad.argmax()), None)), k, n)

    @classmethod
    def _unchecked(cls, k: int, n: int, edges: frozenset[Edge]) -> "Hypergraph":
        """Build without validation, for edges that are valid by construction: a
        builder's output, or a subset of an already valid host's edges."""
        g = object.__new__(cls)
        vars(g).update(k=k, n=n, edges=edges)
        return g

    @classmethod
    def from_edges(cls, k: int, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build a hypergraph, sorting each edge and collapsing duplicates."""
        normalized = frozenset(tuple(sorted(e)) for e in edges)
        return cls(k, n, normalized)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _sorted_order(self) -> tuple[Edge, ...]:
        # Built once per host on first use; not a dataclass field, so equality,
        # hash and repr see only (k, n, edges).
        return tuple(sorted(self.edges))

    def sorted_edges(self) -> list[Edge]:
        """The edges in lexicographic order, as a fresh list the caller may mutate."""
        return list(self._sorted_order)

    @cached_property
    def _rows(self) -> np.ndarray:
        # The edges as a read-only (m, k) int64 array in iteration order, built
        # on first read, so a graph no kernel reads holds no copy; not a field.
        rows = _edge_array(self.edges, self.k)
        rows.flags.writeable = False
        return rows


def _edge_array(edges: frozenset[Edge], k: int) -> np.ndarray:
    """The edges as an (m, k) int64 array in iteration order; a non-integer vertex raises TypeError."""
    vertices = map(operator.index, chain.from_iterable(edges))
    return np.fromiter(vertices, np.int64, len(edges) * k).reshape(len(edges), k)


def _edge_error(e: Edge, k: int, n: int) -> ValueError:
    """The error for an edge the vectorized check flagged, naming the edge."""
    if len(e) != k or len(set(e)) != k:
        return ValueError(f"edge {e!r} must have exactly {k} distinct vertices")
    if tuple(sorted(e)) != e:
        return ValueError(f"edge {e!r} is not sorted")
    return ValueError(f"edge {e!r} has vertices outside [0, {n})")


@dataclass(frozen=True)
class PartitionSpec:
    """An ordered vertex partition; parts are sorted tuples, pairwise disjoint."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for part in self.parts:
            if tuple(sorted(part)) != part or len(set(part)) != len(part):
                raise ValueError(f"part {part!r} is not a sorted set of vertices")
            if seen.intersection(part):
                raise ValueError("parts are not pairwise disjoint")
            seen.update(part)

    @classmethod
    def from_parts(cls, parts: Iterable[Iterable[int]]) -> "PartitionSpec":
        return cls(tuple(tuple(sorted(p)) for p in parts))

    @property
    def k(self) -> int:
        return len(self.parts)

    @cached_property
    def _labels(self) -> np.ndarray:
        # Part index of each vertex; is_partite first checks the parts cover [0, total).
        labels = np.empty(sum(map(len, self.parts)), np.int64)
        for i, part in enumerate(self.parts):
            labels[list(part)] = i
        return labels


@dataclass(frozen=True)
class EdgeSubset:
    """A subset of a host's edges, keeping the reference to the host."""

    host: Hypergraph
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if not self.edges <= self.host.edges:
            raise ValueError("subset contains edges not present in the host")

    @property
    def m(self) -> int:
        return len(self.edges)

    def as_hypergraph(self) -> Hypergraph:
        """The subset as a standalone hypergraph on the host's vertex set."""
        # The host is valid and __post_init__ checked edges <= host.edges.
        return Hypergraph._unchecked(self.host.k, self.host.n, self.edges)


def is_partite(g: Hypergraph, spec: PartitionSpec) -> bool:
    """True iff spec has g.k parts covering [0, n) and every edge meets each part once."""
    if spec.k != g.k:
        return False
    # Parts are sorted and pairwise disjoint, so they cover [0, n) exactly
    # when their sizes sum to n and each lies within [0, n).
    if sum(map(len, spec.parts)) != g.n:
        return False
    if any(part and (part[0] < 0 or part[-1] >= g.n) for part in spec.parts):
        return False
    rows = np.sort(spec._labels[g._rows], axis=1)
    return bool((rows == np.arange(spec.k)).all())


def require_partite(g: Hypergraph, spec: PartitionSpec) -> None:
    if not is_partite(g, spec):
        raise ValueError("hypergraph is not partite with respect to the given partition")


def complete_bipartite(n_u: int, n_w: int) -> tuple[Hypergraph, PartitionSpec]:
    """Complete bipartite graph on parts {0..n_u-1} and {n_u..n_u+n_w-1}."""
    return complete_multipartite((n_u, n_w))


def complete_multipartite(sizes: Sequence[int]) -> tuple[Hypergraph, PartitionSpec]:
    """Complete k-partite k-graph with consecutive parts of the given sizes.

    Edges are all transversals (one vertex per part); m is the product of the sizes.
    """
    if len(sizes) < 1:
        raise ValueError("need at least one part")
    if any(s < 0 for s in sizes):
        raise ValueError("part sizes must be >= 0")
    parts = []
    offset = 0
    for s in sizes:
        parts.append(tuple(range(offset, offset + s)))
        offset += s
    # Consecutive increasing parts make every transversal sorted, distinct and in [0, offset).
    g = Hypergraph._unchecked(len(sizes), offset, frozenset(product(*parts)))
    return g, PartitionSpec(tuple(parts))


def link(g: Hypergraph, spec: PartitionSpec, x: int) -> tuple[Hypergraph, PartitionSpec]:
    """Link of a last-part vertex x: the (k-1)-graph of sets S with S + {x} an edge.

    Vertices of the link are the first k-1 parts, re-labelled densely by sorted
    order (the identity for builder-produced hosts). Returns the link and the
    induced partition of its vertex set.
    """
    require_partite(g, spec)
    if g.k < 2:
        raise ValueError("link requires uniformity k >= 2")
    if x not in spec.parts[-1]:
        raise ValueError(f"vertex {x} is not in the last part")
    kept = sorted(v for part in spec.parts[:-1] for v in part)
    relabel = {v: i for i, v in enumerate(kept)}
    # g is partite, so each edge through x has its other k-1 vertices in kept; the
    # relabelling preserves order, so edges and parts stay sorted, and edges stay
    # distinct and in [0, len(kept)).
    new_edges = frozenset(tuple(relabel[v] for v in e if v != x) for e in g.edges if x in e)
    link_g = Hypergraph._unchecked(g.k - 1, len(kept), new_edges)
    link_spec = PartitionSpec(tuple(tuple(relabel[v] for v in part) for part in spec.parts[:-1]))
    return link_g, link_spec


def _sample(g: Hypergraph, p: float, seed: int) -> tuple[Hypergraph, np.random.Generator]:
    """Keep each edge independently with probability p; return the kept sub-hypergraph and its generator.

    The one seed-to-sample map: a PCG64 generator seeded with seed draws one uniform per
    edge in sorted edge order, so the sample is a pure function of (g, p, seed).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"retention probability p={p} outside [0, 1]")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = g._sorted_order
    kept = np.flatnonzero(rng.random(len(order)) < p)
    return Hypergraph._unchecked(g.k, g.n, frozenset(order[i] for i in kept.tolist())), rng


def bernoulli_edge_sample(g: Hypergraph, p: float, seed: int) -> EdgeSubset:
    """Deterministic Bernoulli(p) edge sample: same (g, p, seed) gives the same subset."""
    return EdgeSubset(g, _sample(g, p, seed)[0].edges)


def hypergraph_to_text(g: Hypergraph) -> str:
    """Serialize: first line "k n m", then m lines of k space-separated vertices."""
    lines = [f"{g.k} {g.n} {g.m}"]
    lines.extend(" ".join(str(v) for v in e) for e in g._sorted_order)
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    """Parse the text format written by hypergraph_to_text. Raises ValueError on malformed input."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty hypergraph file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'k n m', got {lines[0]!r}")
    try:
        k, n, m = (int(t) for t in header)
    except ValueError as exc:
        raise ValueError(f"non-integer header field in {lines[0]!r}") from exc
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ValueError(f"header promises {m} edges, file has {len(body)}")
    edges: set[Edge] = set()
    for ln in body:
        try:
            vertices = [int(t) for t in ln.split()]
        except ValueError as exc:
            raise ValueError(f"non-integer vertex in edge line {ln!r}") from exc
        if len(vertices) != k:
            raise ValueError(f"edge line {ln!r} does not have {k} vertices")
        edge = tuple(sorted(vertices))
        if edge in edges:
            raise ValueError(f"repeated edge {edge!r} in edge line {ln!r}")
        edges.add(edge)
    return Hypergraph(k, n, frozenset(edges))


def partition_to_text(spec: PartitionSpec) -> str:
    """Serialize a partition: k lines, each a space-separated vertex list (possibly empty)."""
    return "\n".join(" ".join(str(v) for v in part) for part in spec.parts) + "\n"


def partition_from_text(text: str) -> PartitionSpec:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        raise ValueError("empty partition file")
    parts = []
    for ln in lines:
        try:
            parts.append(tuple(int(t) for t in ln.split()))
        except ValueError as exc:
            raise ValueError(f"non-integer vertex in partition line {ln!r}") from exc
    return PartitionSpec.from_parts(parts)


def write_hypergraph(g: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(hypergraph_to_text(g))


def read_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        return hypergraph_from_text(fh.read())


def write_partition(spec: PartitionSpec, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(partition_to_text(spec))


def read_partition(path: str) -> PartitionSpec:
    with open(path, "r", encoding="ascii") as fh:
        return partition_from_text(fh.read())
