#!/usr/bin/env python3
"""
Sandwich the largest pattern-free subgraph size between three quantities.

For the tight host with m = n^(r+1) edges:

    (1/4) m^(r/(r+1))   <=   best randomized trial   <=   exact optimum
                                                     <=   s m^(r/(r+1))

The left end is the deletion method's guarantee, the right end the theorem
ceiling, and the middle comes from the branch-and-bound oracle (certified on
these sizes). Small Zarankiewicz-type values fall out along the way.
"""

from krsfree import (
    PatternSpec,
    build_construction,
    complete_bipartite,
    f_lower_report,
    max_free_subgraph,
    theorem_upper_bound,
)

pattern = PatternSpec.krr(2)

print("classic small values (largest 4-cycle-free subgraph, z(n; 2) on K_(n,n)):")
for nu, nw in ((2, 2), (2, 4), (3, 3), (4, 4), (5, 5), (7, 7), (8, 8)):
    g, _ = complete_bipartite(nu, nw)
    result = max_free_subgraph(g, pattern, budget=20_000)
    print(f"  K_({nu},{nw}): m={g.m:2}  optimum={result.optimum}  "
          f"bound={result.upper_bound}  certified={result.proof_of_optimality}  "
          f"nodes={result.nodes_explored}")

print("\ntight hosts K_(n, n^2), pattern side r = 2:")
print("  n    m  guarantee  best-of-100  optimum  ceiling")
for n in (1, 2, 3, 4, 5):
    g, spec, cspec = build_construction(n, 2, 2)
    report = f_lower_report(g, pattern, num_trials=100, base_seed=20260814)
    ceiling = theorem_upper_bound(cspec.m, 2, s=2)
    assert report.guarantee <= report.oracle.optimum <= ceiling + 1e-9
    assert report.best_of_trials <= report.oracle.optimum
    assert report.oracle.proof_of_optimality
    print(f"  {n}  {cspec.m:3}  {report.guarantee:9.3f}  "
          f"{report.best_of_trials:11}  {report.oracle.optimum:7}  {ceiling:7.3f}")

# The guarantee is loose by design (it survives every host with m edges); the
# ceiling is tight only up to the constant s. The oracle closes the gap
# exactly: on K_(n,n^2) its root bound, the Kovari-Sos-Turan count
# n^2 + C(n, 2), is met by a seeded insertion incumbent, so even K_(5,25)
# is certified with no search. K_(8,8) is where that stops: its bound is 25
# against z(8; 2) = 24, so the search must close the last edge, and at this
# budget it reports the gap instead.
