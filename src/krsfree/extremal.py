"""Tight multipartite constructions, the convexity counting certificate, and the
inductive copy-count lower bound.

The host family: a complete k-partite k-graph whose part sizes grow
geometrically, |U_i| = n^(r^(i-1)), so that m = n^q with q = 1 + r + ... + r^(k-1).
On that host every large subgraph is forced to contain the side-r pattern,
which is what theorem_upper_bound and kst_certificate quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from typing import Sequence

from .hypergraph import EdgeSubset, Hypergraph, PartitionSpec, complete_multipartite, require_partite
from .patterns import pattern_exponent

VERDICT_PROVES = "proves-containment"
VERDICT_INCONCLUSIVE = "inconclusive"


# The largest host build_construction builds, and the largest exponent q it reports:
# an n = 1 host has one edge whatever q is, so q has a budget of its own (int64).
_MAX_VERTICES = 200_000
_MAX_EDGES = 2_000_000
_MAX_EXPONENT = 2**63 - 1


class CapacityError(Exception):
    """Requested construction exceeds the vertex, edge or exponent budget."""


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of a built host: base n, side r, uniformity k, sizes, q, m = n^q."""

    n: int
    r: int
    k: int
    part_sizes: tuple[int, ...]
    q: int
    m: int


def build_construction(n: int, r: int, k: int) -> tuple[Hypergraph, PartitionSpec, ConstructionSpec]:
    """Complete k-partite host with |U_i| = n^(r^(i-1)), hence exactly n^q edges."""
    if n < 1:
        raise ValueError("need base n >= 1")
    if r < 2 or k < 2:
        raise ValueError("need r >= 2 and k >= 2")
    # Each budget is checked before the arithmetic it bounds. q >= r^(k-1), so the bit
    # lengths rule out a q past its budget before it is computed; that also leaves k < 64.
    if (r.bit_length() - 1) * (k - 1) >= _MAX_EXPONENT.bit_length() or (
        q := pattern_exponent(r, k)
    ) > _MAX_EXPONENT:
        raise CapacityError(f"construction needs an exponent q above {_MAX_EXPONENT}, the exponent budget")
    # |U_i| = |U_{i-1}|^r is taken only while the total fits and U_{i-1}'s bit length
    # shows it can: otherwise |U_i| >= 2^((bits - 1) r) > _MAX_VERTICES.
    sizes = (n,)
    while len(sizes) < k and sum(sizes) <= _MAX_VERTICES and (
        (sizes[-1].bit_length() - 1) * r < _MAX_VERTICES.bit_length()
    ):
        sizes += (sizes[-1] ** r,)
    if len(sizes) < k or sum(sizes) > _MAX_VERTICES:
        raise CapacityError(f"construction needs more than {_MAX_VERTICES} vertices, the vertex budget")
    m = prod(sizes)  # = n^q, a product of at most five sizes above 1
    if m > _MAX_EDGES:
        raise CapacityError(f"construction needs {m} edges, more than {_MAX_EDGES}, the edge budget")
    g, spec = complete_multipartite(sizes)
    cspec = ConstructionSpec(n=n, r=r, k=k, part_sizes=sizes, q=q, m=m)
    assert g.m == m
    return g, spec, cspec


def theorem_upper_bound(m: int, r: int, s: int | None = None, k: int = 2) -> float:
    """Ceiling on the largest pattern-free subgraph of the tight host.

    Graphs: s * m^(r/(r+1)) for the r-by-s biclique, 2 <= r <= s.
    k >= 3:  r * m^((q-1)/q) for the side-r pattern.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    if k == 2:
        if s is None:
            raise ValueError("graph bound needs s")
        if not 2 <= r <= s:
            raise ValueError("graph bound needs 2 <= r <= s")
        return s * m ** (r / (r + 1))
    if k < 2:
        raise ValueError("need k >= 2")
    if r < 2:
        raise ValueError("need r >= 2")
    q = pattern_exponent(r, k)
    return r * m ** ((q - 1) / q)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the degree-convexity containment certificate.

    lhs = sum over w in W of C(deg(w), r), rhs = s * C(|U|, r). If lhs >= rhs > 0
    then some r-set in U has at least s common neighbours, i.e. the subgraph
    contains an r-by-s biclique with the r-side in U.
    """

    r: int
    s: int
    lhs: int
    rhs: int
    average_degree: Fraction
    verdict: str


def kst_certificate(
    gprime: EdgeSubset, spec: PartitionSpec, r: int, s: int
) -> CertificateReport:
    """Evaluate the certificate for an edge subset of a bipartite host.

    The r-side lives in the first part of spec. Exact integer arithmetic; the
    average degree over the second part is an exact rational.
    """
    host = gprime.host
    if host.k != 2:
        raise ValueError("certificate applies to bipartite hosts only")
    require_partite(host, spec)
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    u_part, w_part = spec.parts
    if not w_part:
        raise ValueError("second part is empty, average degree undefined")
    w_set = set(w_part)
    deg = dict.fromkeys(w_part, 0)
    for a, b in gprime.edges:
        w = b if b in w_set else a
        deg[w] += 1
    lhs = sum(comb(d, r) for d in deg.values())
    rhs = s * comb(len(u_part), r)
    verdict = VERDICT_PROVES if lhs >= rhs > 0 else VERDICT_INCONCLUSIVE
    return CertificateReport(
        r=r,
        s=s,
        lhs=lhs,
        rhs=rhs,
        average_degree=Fraction(len(gprime.edges), len(w_part)),
        verdict=verdict,
    )


def generalized_binomial(a: Fraction, r: int) -> Fraction:
    """C(a, r) = a (a-1) ... (a-r+1) / r! as an exact rational."""
    if r < 0:
        raise ValueError("need r >= 0")
    num = Fraction(1)
    for i in range(r):
        num *= a - i
    return num / factorial(r)


def proposition_lower_bound(
    a: int | Fraction, part_sizes: Sequence[int], r: int
) -> Fraction:
    """C(a, r) * prod over the first k-1 parts of C(|U_i|, r), exactly.

    Lower-bounds the copy count of a k-partite host with a * prod_{i>=2} |U_i|
    edges when a >= r and the part sizes grow geometrically. For k = 1 the
    product is empty and the value is C(a, r).
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if not part_sizes:
        raise ValueError("need at least one part size")
    a = Fraction(a)
    if a < r:
        raise ValueError(f"density a={a} below r={r}")
    value = generalized_binomial(a, r)
    for size in part_sizes[:-1]:
        value *= comb(size, r)
    return value


def edge_density_a(g: Hypergraph, spec: PartitionSpec) -> Fraction:
    """a = m / prod_{i>=2} |U_i|, the normalized edge count, as an exact rational."""
    require_partite(g, spec)
    denom = prod(len(part) for part in spec.parts[1:])
    if denom == 0:
        raise ValueError("a part beyond the first is empty, density undefined")
    return Fraction(g.m, denom)


def common_extension_count_dS(
    g: Hypergraph, spec: PartitionSpec, s_sets: Sequence[Sequence[int]]
) -> int:
    """d(S): how many last-part vertices complete every transversal of S to an edge.

    S supplies one r-set per part U_1 .. U_{k-1}. Summing C(d(S), r) over all
    choices of S gives exactly the partitioned copy count.
    """
    require_partite(g, spec)
    if g.k < 2:
        raise ValueError("need uniformity k >= 2")
    if len(s_sets) != g.k - 1:
        raise ValueError(f"need {g.k - 1} sets, got {len(s_sets)}")
    sets = [tuple(sorted(s)) for s in s_sets]
    sizes = {len(s) for s in sets}
    if len(sizes) != 1 or 0 in sizes:
        raise ValueError("all S-sets must be nonempty and of equal size")
    for i, s in enumerate(sets):
        members = set(spec.parts[i])
        if len(set(s)) != len(s) or not set(s) <= members:
            raise ValueError(f"S-set {s!r} is not a vertex set inside part {i}")
    edges = g.edges
    count = 0
    for x in spec.parts[-1]:
        if all(tuple(sorted(prefix + (x,))) in edges for prefix in product(*sets)):
            count += 1
    return count
