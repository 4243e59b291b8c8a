"""Only ``bases`` knows a basis family by its class.

Every other module reads the family's members (``structural_blocks``,
``pencil``, ``one_row``, ...).  This test walks the package's sources and
fails on any ``isinstance`` or ``issubclass`` whose class argument names a
class defined in ``bases.py``, wherever it sits, ``bases.py`` included.  The
one exception is ``documents`` mapping a basis to its payload key, which is
the document format's knowledge, not the family's.
"""

import ast
from pathlib import Path

import polypencil

SOURCES = Path(polypencil.__file__).resolve().parent

# (file, enclosing function, class) of every class test allowed
ALLOWED = {
    ("documents.py", "parse_document", "Lagrange"),
    ("documents.py", "parse_document", "Hermite"),
}


def basis_classes():
    tree = ast.parse((SOURCES / "bases.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def named(node):
    """The class names a class argument of isinstance or issubclass mentions."""
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts for name in named(element)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def class_tests(path, classes):
    """(file, enclosing function, class) of each isinstance/issubclass on a bases class."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("isinstance", "issubclass") and len(child.args) == 2):
                found.extend((path.name, function, name) for name in named(child.args[1])
                             if name in classes)
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_the_guard_sees_the_basis_classes():
    assert {"Basis", "ThreeTermBasis", "Monomial", "Bernstein", "Hermite",
            "Lagrange"} <= basis_classes()


def test_no_module_tests_a_basis_class_but_the_document_reader():
    classes = basis_classes()
    found = [hit for path in sorted(SOURCES.glob("*.py")) for hit in class_tests(path, classes)]
    assert sorted(hit for hit in found if hit not in ALLOWED) == []
    assert set(found) == ALLOWED, "the allowlist names a class test that is gone"
