import importlib
import pkgutil

import hurwitzlab


def test_every_exported_name_resolves():
    modules = [hurwitzlab] + [
        importlib.import_module(f"hurwitzlab.{info.name}")
        for info in pkgutil.iter_modules(hurwitzlab.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
