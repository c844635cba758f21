"""Every name a ``repro`` module exports in ``__all__`` resolves.

``from repro.x import *`` and the documented import lines depend on
``__all__``; a name left there after its definition is deleted only
fails when someone star-imports the module, which no other test does.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_all_name_resolves():
    stale = []
    exported = 0
    for module in _modules():
        names = getattr(module, "__all__", ())
        exported += len(names)
        stale.extend(
            f"{module.__name__}.{name}"
            for name in names
            if not hasattr(module, name)
        )
    assert exported > 0
    assert stale == []
