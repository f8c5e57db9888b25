"""Derivative tableaux: the module attached to a 1-singular base point.

When exactly one same-row pair of entries coincides, the tableau formulas
develop simple poles.  The module is repaired by doubling the basis with
derivative symbols Der(z) and reading every coefficient through the two
point operators ev (value at the singular point) and d (half-derivative
across it).  The script shows the action mixing Reg and Der, the 2x2
nilpotent blocks of the central element c_22, and the multiplicity-2
eigenvalue classes.
"""

from fractions import Fraction

from gtmod.fixtures import frame_n3
from gtmod.lincomb import LinComb
from gtmod.singular import DER, REG, BasisSymbol, SingularModule, canonical_window
from gtmod.tableaux import ShiftVector

frame = frame_n3()
print(f"frame: {frame.describe()}")
print(f"singular pair: entries ({frame.k},{frame.i}) and ({frame.k},{frame.j}), "
      f"both {frame.vbar.base(frame.k, frame.i)}")

mod = SingularModule(frame)
z0 = ShiftVector.zero(3)

print("\nthe raising generator on the base symbol mixes in a derivative term:")
out = mod.act(2, 3, LinComb.single(BasisSymbol(REG, z0)))
for sym, c in out.items():
    print(f"   {c} * {sym!r}")

print("\nthe action on a derivative symbol feeds back into regular ones:")
w = ShiftVector.of(3, {(2, 1): 1})
out = mod.act(3, 2, LinComb.single(BasisSymbol(DER, w)))
for sym, c in out.items():
    print(f"   {c} * {sym!r}")

print("\nc_22 in the pair basis {Reg(tau z), Der(z)}: a 2x2 Jordan block")
z = ShiftVector.of(3, {(2, 1): 2, (2, 2): -1})
_, gamma = mod.gamma(2, 2, z)
der = mod.der(z)
reg = mod.reg(z)
print(f"   eigenvalue gamma = {gamma}")
print(f"   (c - gamma) Reg  = {mod.crs_via_composition(2, 2, reg) - gamma * reg!r}")
once = mod.crs_via_composition(2, 2, der) - gamma * der
print(f"   (c - gamma) Der  = {once!r}")
print(f"   (c - gamma)^2 Der = {mod.crs_via_composition(2, 2, once) - gamma * once!r}")

print("\neigenvalue classes on the window |z| <= 1 (each size 1 or 2):")
sizes = {}
for syms in mod.character_classes(canonical_window(frame, 1)).values():
    sizes[len(syms)] = sizes.get(len(syms), 0) + 1
for size, count in sorted(sizes.items()):
    print(f"   {count} classes of size {size}")
