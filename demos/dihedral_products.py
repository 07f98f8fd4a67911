"""Walk through the dihedral closed forms.

Products of KL basis elements in a dihedral group follow a simple visual
pattern: integer pyramids on one side, (v + v^-1) bands on the other, with
a reflection when the pyramid reaches the identity and, in the finite
group, an absorption at the longest element.  This script prints the
coefficient tables, evaluates a product in I2(9) both by the closed
form and by the generic column engine, and confirms they agree.
"""

from klbasis.coxeter import group_from_name
from klbasis.dihedral import (
    DihedralWord,
    crosscheck_dihedral,
    finite_product,
    format_triangle,
    infinite_product,
    triangle_table,
)

print("Coefficient pyramid for the infinite dihedral group, k = 3:")
print(format_triangle(triangle_table(None, 3, "same", 5), 3))

print("\nThe closed form inside I2(9) with k = 6: the pyramid reflected at")
print("the longest element, which takes everything that crosses column 8:")
print(format_triangle(triangle_table(9, 6, "same", 9), 6))

print("\nClosed forms for a few infinite products (same side):")
for i in (1, 3, 5):
    print(f"  i={i}, k=3:  {infinite_product('same', i, 3)}")

print("\nA product in I2(9): both factors the length-6 word 121212.")
p = finite_product(9, "same", 6, 6)
print(f"  closed form: {p}")

g = group_from_name("I2(9)")
y = DihedralWord.ending_in(2, 6).element(g)
print(f"  (the factor is element {y} = {g.word_str(y)} of I2(9))")

print("\nCross-checking every product against the generic engine for m = 2..12:")
for m in range(2, 13):
    rep = crosscheck_dihedral(m)
    status = "ok" if rep.passed else "FAILED"
    print(f"  I2({m:2d}): {rep.counters['products']:4d} products {status}")
