"""Tour of the Kazhdan-Lusztig layer on a mid-size group.

Builds B3 (order 48), prints its distinct KL polynomials, inspects a few
values and mu edges, and verifies one KL basis element against the
independent bar-involution solve.
"""

from klbasis.coxeter import group_from_name
from klbasis.hecke import c_in_t_basis, c_in_t_basis_oracle
from klbasis.klbase import KLStore, build_wgraph, extremal_pairs

g = group_from_name("B3")
print(f"{g.name}: {g.size} elements, longest element {g.w0} "
      f"of length {g.lengths[g.w0]}")

ep = extremal_pairs(g)
print(f"extremal pairs after inverse reduction: {ep.count()}")

store = KLStore(g)
print("\ndistinct KL polynomials:")
for p in store.distinct_polynomials():
    print(f"  {p}")

w0 = g.w0
all_one = all(str(p) == "1" for p in store.kl_polynomials(range(g.size), w0))
print(f"\ncolumn of w0: P(x, w0) = 1 for every x: {all_one}")

interesting = [
    (x, y, p)
    for x, y, p in store.iter_pairs()
    if p.degree() >= 1
]
print(f"\npairs with a nontrivial polynomial: {len(interesting)}; a sample:")
for x, y, p in interesting[:5]:
    print(f"  P({g.word_str(x)}, {g.word_str(y)}) = {p}")

wg = build_wgraph(store)
print(f"\nW-graph: {wg.edge_count()} mu-edges")
long_edges = [(x, y, mu) for x, y, mu in wg.edges()
              if g.lengths[y] - g.lengths[x] > 1]
print(f"edges spanning more than one length level: {len(long_edges)}")

y = g.size - 2
direct = c_in_t_basis(store, y)
solved = c_in_t_basis_oracle(g, y)
print(f"\nbar-solve oracle agrees with the recursion at y={y}: "
      f"{direct == solved} ({len(direct)} t-basis terms)")
