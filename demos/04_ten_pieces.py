"""The ten-piece decomposition of the all-equal n = 3 module.

Over the base point with every entry equal, the module of regular and
derivative tableaux has length 10.  Shifts are written (m, n, k) =
(z_21, z_22, z_11); each canonical symbol falls into one of ten pieces
stacked in seven layers:

    L1 | L3 + L5 | L7 | L5' + L6 | L7' | L4 + L6' | L2

The script counts window symbols per piece, verifies on a sample that the
action never climbs layers, and shows the growing weight multiplicities
inside L7.
"""

from collections import Counter

from gtmod.fixtures import frame_all_equal
from gtmod.lincomb import LinComb
from gtmod.n3 import LOEWY_LAYERS, classify_shift, weight_key
from gtmod.singular import SingularModule, canonical_window
from gtmod.tableaux import window_shifts

frame = frame_all_equal()
mod = SingularModule(frame)

counts = Counter(classify_shift(z) for z in window_shifts(3, 3))
layers = {piece: LOEWY_LAYERS[piece] for piece in counts}
print("symbols per piece on the window |z| <= 3:")
for piece, layer in sorted(layers.items(), key=lambda kv: (kv[1], kv[0])):
    print(f"   layer {layer}  {piece:4s} {counts[piece]}")

print("\nthe action moves symbols only toward the socle (sample):")
for sym in canonical_window(frame, 1)[:6]:
    piece = classify_shift(sym.shift)
    targets = set()
    for l in range(1, 4):
        for m in range(1, 4):
            for out_sym, _ in mod.act(l, m, LinComb.single(sym)).items():
                targets.add(classify_shift(out_sym.shift))
    print(f"   {sym!r} in {piece} (layer {LOEWY_LAYERS[piece]}) -> "
          f"{sorted(targets, key=LOEWY_LAYERS.get)}")
    assert all(LOEWY_LAYERS[p] <= LOEWY_LAYERS[piece] for p in targets)

print("\nweight multiplicities inside L7 grow with the window:")
for bound in (2, 3, 4, 5):
    per_weight = Counter(weight_key(z) for z in window_shifts(3, bound)
                         if classify_shift(z) == "L7")
    top = per_weight.most_common(1)[0] if per_weight else None
    print(f"   window {bound}: {sum(per_weight.values())} symbols in L7, "
          f"largest weight multiplicity {top[1] if top else 0}")
