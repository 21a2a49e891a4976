"""Every public top-level function and class of the package, and every
public method and property of its classes, has a caller in the program: in
another module of `src/`, in `scripts/` or `perfbench/`, or elsewhere in its
own module. A name that only tests reach is dead weight. A method that
overrides one of a base class outside the package (`cli._Parser.error`) is
called by that base and needs no caller of its own. Private functions and
methods need a program caller too; only dunders, which Python calls, are
exempt."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpe"
PROGRAM = sorted(
    [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
)


def referenced_names(node: ast.AST) -> set[str]:
    """Names, attributes and imported names under `node`, plus string
    constants that are identifiers (names looked up with getattr)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                names.add(sub.value)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    # Names referenced by each top-level statement of each program file.
    statements = {
        path: [(node, referenced_names(node)) for node in ast.parse(path.read_text("utf-8")).body]
        for path in PROGRAM
    }
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, _ in statements[path]:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # Any statement of any program file but the definition itself.
            if not any(
                node.name in names
                for other in PROGRAM
                for stmt, names in statements[other]
                if stmt is not node
            ):
                uncalled.append(f"{path.stem}.{node.name}")
    assert uncalled == []


def program_units() -> list[tuple[Path, str | None, ast.AST, set[str]]]:
    """(file, enclosing class name or None, statement, names it references)
    for each top-level statement of each program file, with each statement of
    a class body on its own, so a method's own body is not its caller but its
    sibling methods are."""
    units = []
    for path in PROGRAM:
        for node in ast.parse(path.read_text("utf-8")).body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            for part in node.body if owner else [node]:
                units.append((path, owner, part, referenced_names(part)))
    return units


def has_caller(definition: ast.FunctionDef, units) -> bool:
    """Whether a program statement other than the definition names it."""
    return any(definition.name in names for _, _, unit, names in units if unit is not definition)


def test_every_public_method_has_a_caller_outside_tests():
    units = program_units()
    uncalled = []
    for path, owner, method, _ in units:
        if path.parent != PACKAGE or owner is None:
            continue
        if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
            continue
        bases = getattr(importlib.import_module(f"mpe.{path.stem}"), owner).__mro__[1:]
        if any(hasattr(base, method.name) for base in bases):
            continue
        if not has_caller(method, units):
            uncalled.append(f"{path.stem}.{owner}.{method.name}")
    assert uncalled == []


def test_every_private_function_and_method_has_a_caller_outside_tests():
    units = program_units()
    private = [
        (path, owner, node)
        for path, owner, node, _ in units
        if path.parent == PACKAGE
        and isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    uncalled = [
        ".".join(filter(None, (path.stem, owner, node.name)))
        for path, owner, node in private
        if not has_caller(node, units)
    ]
    assert private
    assert uncalled == []
