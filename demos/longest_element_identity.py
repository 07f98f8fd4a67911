"""The two-sided ideal at the longest element.

Every product c_x * c_w0 is a scalar multiple of c_w0, and the scalar is
the length-weighted sum of the p-polynomials below x.  Normalised by
v^l(x) it becomes a palindromic polynomial in q; on the crystallographic
presets it is unimodal as well.  This script computes the scalars for A3
and displays the unimodal coefficient rows.
"""

from klbasis.coxeter import group_from_name
from klbasis.hecke import column
from klbasis.klbase import KLStore, build_wgraph
from klbasis.ring import is_unimodal, qpoly_from_sym

g = group_from_name("A3")
store = KLStore(g)
wg = build_wgraph(store)
col = column(wg, g.w0)

print(f"{g.name}: scalars h_x with c_x c_w0 = h_x c_w0, as polynomials in q\n")
width = max(len(g.word_str(x)) for x in range(g.size))
for x in range(g.size):
    row = col.row(x)
    assert set(row) == {g.w0}
    qp = qpoly_from_sym(col.store.poly(row[g.w0]))
    flags = []
    if qp.is_palindromic():
        flags.append("palindromic")
    if is_unimodal(qp):
        flags.append("unimodal")
    print(f"  x = {g.word_str(x):<{width}}  coeffs {qp.coeffs}  ({', '.join(flags)})")

print("\nThe top scalar is the Poincare series of the group in q:")
top = qpoly_from_sym(col.store.poly(col.row(g.w0)[g.w0]))
from collections import Counter

lengths = Counter(g.lengths)
print(f"  h_w0 coefficients: {top.coeffs}")
print(f"  elements by length: {tuple(lengths[k] for k in range(max(lengths)+1))}")
