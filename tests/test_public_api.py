"""The package exports exactly what its modules declare in ``__all__``."""

import types

import triring
from triring import errors, fock, lindblad, model, observables, scattering


def test_exports_are_the_union_of_module_all():
    public = {
        name for name in dir(triring)
        if not name.startswith("_") and not isinstance(getattr(triring, name), types.ModuleType)
    }
    # a name declared by two modules would be exported once, by the later one
    declared = [
        name for module in (errors, fock, model, lindblad, observables, scattering)
        for name in module.__all__
    ]
    assert public == set(declared)
    assert len(declared) == len(public) == 76
