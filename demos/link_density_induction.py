#!/usr/bin/env python3
"""
The inductive copy-count bound, computed piece by piece on a 3-partite host.

Write the host's edge count as m = a * |U_2| * |U_3| (a is the normalized
density). The bound says a host with a >= r and geometrically growing parts
has at least C(a, r) * C(|U_1|, r) * C(|U_2|, r) side-r pattern copies.

Two ingredients are shown directly:
  * links: fixing a last-part vertex x leaves a (k-1)-partite host, and the
    link edge counts sum back to m;
  * d(S): for each choice S of one r-set per earlier part, d(S) counts the
    last-part vertices joined to all of S, and sum_S C(d(S), r) is exactly
    the copy count.
"""

from itertools import combinations

from math import comb

from krsfree import (
    common_extension_count_dS,
    complete_multipartite,
    count_copies,
    edge_density_a,
    link,
    proposition_lower_bound,
)

r = 2
g, spec = complete_multipartite([2, 4, 16])
sizes = tuple(len(p) for p in spec.parts)
print(f"host: complete 3-partite {sizes}, m={g.m}")

a = edge_density_a(g, spec)
print(f"normalized density a = m / (|U_2|*|U_3|) = {a}")

# Link decomposition over the last part.
link_sizes = [link(g, spec, x)[0].m for x in spec.parts[-1]]
print(f"link sizes over U_3: {sorted(set(link_sizes))} (x{len(link_sizes)}), "
      f"sum = {sum(link_sizes)} = m")

# d(S) machinery: every S here sees the whole last part because the host is
# complete, so each term contributes C(16, 2).
total = 0
terms = 0
for s1 in combinations(spec.parts[0], r):
    for s2 in combinations(spec.parts[1], r):
        d = common_extension_count_dS(g, spec, [s1, s2])
        total += comb(d, r)
        terms += 1
copies = count_copies(g, r, spec)
print(f"sum over {terms} choices of S of C(d(S), {r}) = {total}")
print(f"count_copies = {copies}")
assert total == copies

bound = proposition_lower_bound(a, sizes, r)
print(f"inductive lower bound C(a,{r}) * C({sizes[0]},{r}) * C({sizes[1]},{r}) = {bound}")
assert copies >= bound

# The complete (2, 4, 16) host sits exactly at a = r, so any thinning leaves
# the bound's precondition. A host with slack, K_(4,12), can lose a quarter of
# its edges (here: every edge at its last U_1 vertex) and still satisfy a >= r.
from krsfree import Hypergraph, complete_bipartite

g2, spec2 = complete_bipartite(4, 12)
thin = Hypergraph(2, g2.n, frozenset(g2.sorted_edges()[: 3 * g2.m // 4]))
a_thin = edge_density_a(thin, spec2)
bound_thin = proposition_lower_bound(a_thin, (4, 12), r)
print(f"\nthinned K_(4,12): m={thin.m}, a={a_thin} (still >= {r})")
print(f"copies {count_copies(thin, r, spec2)} >= bound {bound_thin}")
assert count_copies(thin, r, spec2) >= bound_thin
