import ast
import importlib
import pkgutil
import sys
from pathlib import Path
from types import FunctionType

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


def _callers_outside_the_tests() -> set:
    """Every name read by the package, the demos or the benchmark; the
    package's top-level re-export is not a caller."""
    package = Path(hurwitzlab.__file__).parent
    root = package.parent.parent
    used = set()
    for folder in (package, root / "demos", root / "perfbench"):
        for path in folder.glob("*.py"):
            if path != package / "__init__.py":
                used |= _uses(path)
    return used


def _exported():
    """(module name, exported name, object) for every public export."""
    modules = [hurwitzlab] + [
        importlib.import_module(f"hurwitzlab.{info.name}")
        for info in pkgutil.iter_modules(hurwitzlab.__path__)
    ]
    return [(module.__name__, name, getattr(module, name))
            for module in modules for name in getattr(module, "__all__", ())]


def test_every_exported_name_has_a_caller_outside_the_tests():
    used = _callers_outside_the_tests()
    unused = sorted(
        (module, name)
        for module, name, _ in _exported()
        if name not in used and name not in REFERENCE_ROUTES
    )
    assert not unused, unused


def test_every_public_method_of_an_exported_class_has_a_caller_outside_the_tests():
    used = _callers_outside_the_tests()
    unused = sorted(
        {
            (cls.__module__, cls.__name__, attr)
            for _, _, cls in _exported()
            if isinstance(cls, type) and cls.__module__.startswith("hurwitzlab.")
            for attr, member in vars(cls).items()
            if not attr.startswith("_")
            and isinstance(member, (FunctionType, staticmethod, classmethod, property))
            and attr not in used
        }
    )
    assert not unused, unused
