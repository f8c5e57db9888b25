"""The names the benchmark tracer wraps stay bound where it looks for them.

``perfbench/tracer.py`` patches a class-owned target by reading
``owner.__dict__[attr]``, so each module family binds the inherited
operations it wraps in its own class body.  Those re-bindings must be the
very ``TableauModule`` functions, not second implementations.  The tracer
is loaded from its file, unchanged, and never installed here.
"""

import importlib.util
from pathlib import Path

import pytest

from gtmod import finite, generic, singular
from gtmod.core import TableauModule

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
FAMILIES = (singular.SingularModule, generic.GenericModule, finite.FiniteModule)


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(owner, attr) for owner, attr, _ in tracer.TARGETS if isinstance(owner, type)]


TARGETS = _targets()


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_every_class_target_is_in_its_owners_namespace(owner, attr):
    assert attr in owner.__dict__


@pytest.mark.parametrize("family", FAMILIES, ids=[family.__name__ for family in FAMILIES])
def test_family_rebindings_are_the_base_functions(family):
    """Every inherited operation the tracer wraps on a family is bound there
    to ``TableauModule``'s own function, and nothing else is re-bound."""
    wrapped = {attr for owner, attr in TARGETS
               if owner is family and attr in TableauModule.__dict__ and attr != "__init__"}
    assert wrapped
    for attr in wrapped:
        assert family.__dict__[attr] is TableauModule.__dict__[attr], attr
    rebound = {attr for attr, fn in family.__dict__.items()
               if TableauModule.__dict__.get(attr) is fn}
    assert rebound == wrapped
