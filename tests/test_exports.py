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


PACKAGE = Path(hurwitzlab.__file__).parent


def _program_files() -> list:
    """The package's modules, the demos and the benchmark scripts."""
    root = PACKAGE.parent.parent
    return [path for folder in (PACKAGE, root / "demos", root / "perfbench")
            for path in sorted(folder.glob("*.py"))]


def _callers_outside_the_tests() -> set:
    """Every name read by the package, the demos or the benchmark; the
    package's top-level re-export is not a caller."""
    used = set()
    for path in _program_files():
        if path != PACKAGE / "__init__.py":
            used |= _uses(path)
    return used


def _writes_to_terms(path: Path) -> list:
    """Lines of ``path`` that assign to (or delete) an attribute named
    ``terms``, or a subscript of one."""
    def leaves(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from leaves(elt)
        elif isinstance(target, ast.Starred):
            yield from leaves(target.value)
        else:
            while isinstance(target, ast.Subscript):
                target = target.value
            yield target

    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(leaf, ast.Attribute) and leaf.attr == "terms"
               for target in targets for leaf in leaves(target)):
            lines.append(node.lineno)
    return lines


def _functions_quoting(path: Path, text: str) -> list:
    """The innermost function around each string literal of ``path`` that
    contains ``text`` (f-string pieces included); "<module>" outside any."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


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


def test_only_multipoly_writes_polynomial_terms():
    # a MultiPoly's terms are built in one place, MultiPoly._collect; every
    # other module reads them or goes through the ring operations
    writes = {path.name: lines for path in _program_files()
              if path != PACKAGE / "multipoly.py" and (lines := _writes_to_terms(path))}
    assert not writes, writes


def test_one_function_writes_the_mismatch_text():
    # every route comparison names its first mismatch through
    # harness._first_mismatch; a second witness formatter shows up here
    found = [(path.name, where) for path in _program_files()
             for where in _functions_quoting(path, "mismatch at")]
    assert found == [("harness.py", "_first_mismatch")], found
