"""Seeded random corpora shared by the module tests and the acceptance suite."""

from __future__ import annotations

import random
from itertools import combinations, product

from krsfree import Hypergraph, PartitionSpec, complete_bipartite, complete_multipartite


def random_graph(n: int, density: float, rng: random.Random) -> Hypergraph:
    edges = [e for e in combinations(range(n), 2) if rng.random() < density]
    return Hypergraph.from_edges(2, n, edges)


def random_kgraph(n: int, k: int, density: float, rng: random.Random) -> Hypergraph:
    edges = [e for e in combinations(range(n), k) if rng.random() < density]
    return Hypergraph.from_edges(k, n, edges)


def graph_corpus(count: int = 500, max_n: int = 10, seed: int = 20260814) -> list[Hypergraph]:
    """Random graphs across all densities, prefixed with structured specials."""
    rng = random.Random(seed)
    specials: list[Hypergraph] = [
        Hypergraph(2, 0, frozenset()),
        Hypergraph(2, 5, frozenset()),
        Hypergraph.from_edges(2, max_n, combinations(range(max_n), 2)),
        complete_bipartite(2, 2)[0],
        complete_bipartite(2, 4)[0],
        complete_bipartite(3, 3)[0],
        complete_bipartite(4, 4)[0],
        Hypergraph.from_edges(2, 8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
        Hypergraph.from_edges(2, 6, [(0, i) for i in range(1, 6)]),
    ]
    graphs = list(specials)
    while len(graphs) < count:
        n = rng.randint(2, max_n)
        graphs.append(random_graph(n, rng.random(), rng))
    return graphs[:count]


def sparse_graph_corpus(seed: int = 6161) -> list[Hypergraph]:
    """Sparse graphs: a few edges among 10^3 to 10^5 mostly isolated vertices, and G(n, c/n).

    The isolated-vertex hosts place a random graph, or a K_{3,3} plus a path,
    on a few vertices spread over the whole range, so copies join far-apart ids.
    """
    rng = random.Random(seed)
    graphs = []
    for n in (1_000, 10_000, 100_000):
        verts = sorted(rng.sample(range(n), 12))
        graphs.append(Hypergraph.from_edges(2, n, (e for e in combinations(verts, 2) if rng.random() < 0.5)))
        a, b = verts[:6:2], verts[1:6:2]
        path = list(zip(verts[6:], verts[7:]))
        graphs.append(Hypergraph.from_edges(2, n, list(product(a, b)) + path))
    for n in (30, 120):
        for c in (2.0, 6.0):
            graphs.append(random_graph(n, c / n, rng))
    return graphs


def disjoint_k33(blocks: int) -> Hypergraph:
    """blocks vertex-disjoint copies of K_{3,3}, block b on vertices 6b .. 6b + 5."""
    edges = [(6 * b + i, 6 * b + 3 + j) for b in range(blocks) for i in range(3) for j in range(3)]
    return Hypergraph.from_edges(2, 6 * blocks, edges)


def partite_host(sizes: tuple[int, ...], density: float, rng: random.Random,
                 min_edges: int = 0) -> tuple[Hypergraph, PartitionSpec]:
    """Random subgraph of a complete multipartite host, topped up to min_edges."""
    full, spec = complete_multipartite(list(sizes))
    all_edges = full.sorted_edges()
    chosen = {e for e in all_edges if rng.random() < density}
    missing = [e for e in all_edges if e not in chosen]
    rng.shuffle(missing)
    while len(chosen) < min_edges and missing:
        chosen.add(missing.pop())
    return Hypergraph(full.k, full.n, frozenset(chosen)), spec


def geometric_partite_corpus(count: int, r: int = 2, seed: int = 977) -> list[
    tuple[Hypergraph, PartitionSpec]
]:
    """Instances whose part sizes satisfy |U_{i+1}| >= |U_i| * (|U_i| - 1).

    That growth is the shape hypothesis under which the inductive copy-count
    bound is provable for r = 2; arbitrary sizes admit counterexamples.
    Densities are drawn so that a = m / prod_{i>=2} |U_i| lands at or above r.
    """
    rng = random.Random(seed)
    shapes: list[tuple[int, ...]] = []
    for u1 in (2, 3, 4):
        lo = max(u1 * (u1 - 1), 2)
        for u2 in range(lo, 17):
            shapes.append((u1, u2))
    shapes.append((2, 2, 4))
    shapes.append((2, 3, 8))
    shapes.append((2, 4, 16))
    out: list[tuple[Hypergraph, PartitionSpec]] = []
    while len(out) < count:
        sizes = rng.choice(shapes)
        u1 = sizes[0]
        prod_rest = 1
        for s in sizes[1:]:
            prod_rest *= s
        # target density a in [r, u1]; complete host has a = u1
        target_a = rng.uniform(r, u1)
        min_edges = max(r * prod_rest, int(round(target_a * prod_rest)))
        g, spec = partite_host(sizes, target_a / u1, rng, min_edges=min_edges)
        if g.m < r * prod_rest:
            continue
        out.append((g, spec))
    return out


def partite_corpus_small(count: int, seed: int = 313) -> list[tuple[Hypergraph, PartitionSpec]]:
    """Small partite instances of any density, for counting identities."""
    rng = random.Random(seed)
    out = []
    shapes = [(2, 3), (3, 3), (3, 5), (4, 4), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 2, 2)]
    while len(out) < count:
        sizes = rng.choice(shapes)
        g, spec = partite_host(sizes, rng.random(), rng)
        out.append((g, spec))
    return out


def shuffled_partite_corpus(count: int, seed: int = 1717) -> list[tuple[Hypergraph, PartitionSpec]]:
    """Small partite instances whose vertex labels are shuffled, so the parts interleave.

    In partite_host the parts are runs of consecutive labels, so vertex order
    and part order agree; here they do not.
    """
    rng = random.Random(seed)
    shapes = [(3, 4), (4, 3), (5, 5), (2, 2, 3), (3, 2, 3), (2, 3, 5), (3, 3, 3), (2, 2, 2, 2), (3, 2, 2, 4)]
    out = []
    while len(out) < count:
        g, spec = partite_host(rng.choice(shapes), rng.random(), rng)
        label = list(range(g.n))
        rng.shuffle(label)
        edges = [tuple(sorted(label[v] for v in e)) for e in g.sorted_edges()]
        parts = PartitionSpec.from_parts([label[v] for v in part] for part in spec.parts)
        out.append((Hypergraph.from_edges(g.k, g.n, edges), parts))
    return out


def sparse_partite_host(sizes: tuple[int, ...], m: int, seed: int) -> tuple[Hypergraph, PartitionSpec]:
    """m distinct random transversals of consecutive parts of the given sizes.

    The transversals are drawn one by one, so the complete host is never built.
    """
    rng = random.Random(seed)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    edges: set[tuple[int, ...]] = set()
    while len(edges) < m:
        edges.add(tuple(start + rng.randrange(size) for start, size in zip(starts, sizes)))
    spec = PartitionSpec(tuple(tuple(range(start, start + size)) for start, size in zip(starts, sizes)))
    return Hypergraph.from_edges(len(sizes), sum(sizes), edges), spec


def kgraph_corpus(count: int, seed: int = 555, k: int = 3, max_n: int = 9) -> list[Hypergraph]:
    """Random k-uniform hypergraphs on k to max_n vertices for the unordered pattern paths."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(k, max_n)
        out.append(random_kgraph(n, k, rng.random(), rng))
    return out
