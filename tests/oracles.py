"""Brute-force oracles the tests hold the package to; nothing in the
package calls them."""

from klbasis.coxeter import GroupTable
from klbasis.hecke import CCombo, HColumn
from klbasis.klbase import WGraph


def all_reduced_subwords(g: GroupTable, y: int) -> set[int]:
    """Brute-force Bruhat lower interval via the subword definition,
    scanning subsequences of one reduced word of y."""
    reachable = {0}
    for s in g.word(y):
        reachable |= {g.rmult[x][s] for x in reachable}
    return reachable


def ccombo_from_column_row(col: HColumn, x: int) -> CCombo:
    """Row of the column as a KL-basis combination with Laurent values."""
    return {z: col.store.poly(u).expand() for z, u in col.rows[x].items()}


def descent_edges(wg: WGraph) -> tuple:
    """``[s][z]``: for s not in L(z), the (w, mu) of ``wg.mu_in(z)`` with
    s in L(w), the edges the column recursion follows; empty for s in
    L(z)."""
    lmask = wg.g.lmask
    lists = wg.mu_lists
    return tuple(
        tuple(
            () if lmask[z] & bit else tuple([e for e in edges if lmask[e[0]] & bit])
            for z, edges in enumerate(lists)
        )
        for bit in (1 << s for s in range(wg.g.rank))
    )


def cheapest_descent(wg: WGraph, edges: tuple) -> tuple[int, ...]:
    """For each x, the s in L(x) whose sx has the fewest ``edges[s]``
    (``descent_edges``), the lowest s on ties; -1 for the identity."""
    g = wg.g
    return (-1,) + tuple(
        min(
            (s for s in range(g.rank) if g.lmask[x] >> s & 1),
            key=lambda s: len(edges[s][g.lmult[x][s]]),
        )
        for x in range(1, g.size)
    )


def mu_bounds(wg: WGraph) -> tuple[int, int]:
    """(largest |mu|, largest sum of |mu| over the edges into one y)."""
    mus = [[abs(mu) for _, mu in edges] for edges in wg.mu_lists]
    return max(map(max, filter(None, mus)), default=0), max(map(sum, mus), default=0)


def table_problems(wg: WGraph) -> list[str]:
    """Where ``wg.tables`` departs from the oracles above, or holds two int
    objects for one element."""
    tables, edges = wg.tables, descent_edges(wg)
    problems = []
    for s in range(wg.g.rank):
        for z in range(wg.size):
            want = edges[s][z]
            if tables.ones[s][z] != tuple(w for w, mu in want if mu == 1):
                problems.append(f"ones[{s}][{z}]")
            if tables.others[s][z] != tuple((w, mu) for w, mu in want if mu != 1):
                problems.append(f"others[{s}][{z}]")
    if tables.cheapest != cheapest_descent(wg, edges):
        problems.append("cheapest")
    if (tables.max_mu, tables.max_mu_sum) != mu_bounds(wg):
        problems.append("mu bounds")
    shared: dict[int, int] = {}
    for s in range(wg.g.rank):
        for ws, pairs in zip(tables.ones[s], tables.others[s]):
            for w in ws + tuple(w for w, _ in pairs):
                if shared.setdefault(w, w) is not w:
                    problems.append(f"element {w} held as two int objects")
    return problems
