"""The universal tableau module over a generic base point.

Basis symbols are integer shift vectors relative to a fixed generic
tableau (top row frozen).  The action of a generator E_{lm} on a basis
symbol is the finite sum given by the permutation-form coefficients; the
central elements of each nested gl(m) act through either the closed-form
symmetric functions or by literally composing generator words, which is
what the verification suites compare.

The basis is lazy: vectors store only the shifts they touch, so nothing
ever enumerates the (infinite) full basis.
"""

from __future__ import annotations

from . import core
from .lincomb import LinComb
from .tableaux import ShiftVector, Tableau, is_generic, omega_plus

__all__ = ["GenericModule", "submodule_membership"]


class GenericModule(core.TableauModule):
    """gl(n) acting on shifts of one generic tableau."""

    def __init__(self, base: Tableau):
        if not is_generic(base):
            raise ValueError("base tableau is not generic")
        super().__init__(base)

    def _act_uncached(self, l: int, m: int, z: ShiftVector) -> LinComb:
        """E_{lm} applied to the basis tableau at shift z, summed as integer
        ratios."""
        return LinComb.from_ratios((target, *e.const_ratio())
                                   for e, target in self.perm_targets(l, m, z))

    # bound here for perfbench/tracer.py, which wraps this class's own names
    act_symbol = core.TableauModule.act_symbol
    bracket_defect = core.TableauModule.bracket_defect
    crs_via_composition = core.TableauModule.crs_via_composition


def submodule_membership(left: Tableau, right: Tableau) -> bool:
    """True when the submodule generated by ``left`` contains ``right``,
    by the cross-row nonnegative-integer-difference criterion."""
    return omega_plus(left) <= omega_plus(right)
