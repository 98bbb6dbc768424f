import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import hurwitzlab


def test_every_exported_name_resolves():
    modules = [hurwitzlab] + [
        importlib.import_module(f"hurwitzlab.{info.name}")
        for info in pkgutil.iter_modules(hurwitzlab.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_package_imports_only_the_standard_library():
    for path in sorted(Path(hurwitzlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root == "hurwitzlab" or root in sys.stdlib_module_names, (path.name, root)
