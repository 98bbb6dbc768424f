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


# reference routes that only the tests compare against
REFERENCE_ROUTES = {"e_operator_apply", "wk_from_potential", "kernel_alt_form",
                    "f2_from_central_character", "central_character_f2"}


def _uses(path: Path) -> set:
    """Names that ``path`` imports or reads (as a name or an attribute),
    outside the definition of the same name.  An import counts."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(), str(path)), frozenset())
    return found


def test_every_exported_name_has_a_caller_outside_the_tests():
    package = Path(hurwitzlab.__file__).parent
    root = package.parent.parent
    used = set()
    for folder in (package, root / "demos", root / "perfbench"):
        for path in folder.glob("*.py"):
            # the package's top-level re-export is not a caller
            if path != package / "__init__.py":
                used |= _uses(path)
    modules = [hurwitzlab] + [
        importlib.import_module(f"hurwitzlab.{info.name}")
        for info in pkgutil.iter_modules(hurwitzlab.__path__)
    ]
    unused = sorted(
        (module.__name__, name)
        for module in modules
        for name in getattr(module, "__all__", ())
        if name not in used and name not in REFERENCE_ROUTES
    )
    assert not unused, unused
