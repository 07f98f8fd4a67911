"""Brute-force oracles the tests hold the package to; nothing in the
package calls them."""

from klbasis.coxeter import GroupTable
from klbasis.hecke import CCombo, HColumn


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
