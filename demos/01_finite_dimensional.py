"""Finite-dimensional modules from standard tableaux.

Builds the 8-dimensional gl(3) module with highest weight (2,1,0): lists
the standard tableaux, compares the count with the Weyl dimension formula,
shows a lowering-operator matrix, and confirms brackets and central
eigenvalues hold exactly.
"""

import itertools

from gtmod.finite import FiniteModule, standard_tableaux, weyl_dimension
from gtmod.lincomb import LinComb

lam = (2, 1, 0)
print(f"highest weight lam = {lam}")
print(f"Weyl dimension product: {weyl_dimension(lam)}")

tabs = standard_tableaux(lam)
print(f"standard tableaux with top row (2,0,-2): {len(tabs)}")
for t in tabs:
    print("   ", t.to_text())

mod = FiniteModule(lam)
assert mod.dimension == weyl_dimension(lam)

print("\nmatrix of the lowering generator E_21 in the standard basis:")
for col in mod.basis:
    out = mod.act_symbol(2, 1, col)
    terms = ", ".join(f"{c} * {mod.tableau_at(z).to_text()}" for z, c in out.items()) or "0"
    print(f"   E_21 {mod.tableau_at(col).to_text()} = {terms}")

print("\nchecking all 36 bracket relations on all 8 basis vectors ...")
gens = [(a, b) for a in range(1, 4) for b in range(1, 4)]
bad = 0
for z in mod.basis:
    for g1, g2 in itertools.combinations(gens, 2):
        if not mod.bracket_defect(g1, g2, z).is_zero:
            bad += 1
print(f"   defects: {bad}")

print("\ncentral eigenvalues (composed words vs closed form) ...")
for (r, s) in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
    for z in mod.basis:
        got = mod.crs_via_composition(r, s, LinComb.single(z))
        assert got == LinComb.single(z, mod.gamma_eigenvalue(r, s, z))
    print(f"   c({r},{s}) acts by gamma({r},{s}) on all basis vectors: exact")
