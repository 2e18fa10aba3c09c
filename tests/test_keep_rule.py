"""Every function and class in the package is named somewhere in the
package besides its own definition: a library function stays only if
the CLI, an experiment or a headline claim of the paper uses it."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracnls"

# qualified name -> why it stays with no caller in the package
UNCALLED_BUT_KEPT = {
    "besov_difference_report": "criterion 6 in test_acceptance.py",
    "besov_norm_fd": "criterion 2 in test_acceptance.py",
    "besov_norm_lp": "criterion 2 in test_acceptance.py",
    "fit_slope": "criterion 7 in test_acceptance.py",
    "nu": "criterion 1 in test_acceptance.py",
    "Grid.nyquist": "band limit of the test fixtures; moving it into the "
                    "tests would not reduce the code",
    "Grid.wavenumber_magnitude": "band limit of the test fixtures; moving "
                                 "it into the tests would not reduce the "
                                 "code",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of every def and class, methods as
    Class.method, dunders left out."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield prefix + name, name
                yield from walk(child, prefix + name + ".")
    yield from walk(tree, "")


def _exported(tree: ast.Module) -> set:
    """ids of the nodes inside assignments to __all__: exporting a name
    is not using it."""
    nodes = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in stmt.targets):
            nodes.update(map(id, ast.walk(stmt.value)))
    return nodes


def _names(tree: ast.Module) -> Counter:
    """How often each identifier is named outside a definition: as a
    variable, an attribute, an import or a string, other than an
    __all__ entry."""
    counts = Counter()
    exported = _exported(tree)
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            counts[node.value] += 1
    return counts


def test_every_definition_is_named_elsewhere_in_the_package():
    trees = [ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))]
    named = sum((_names(tree) for tree in trees), Counter())
    unnamed = sorted(qualified for tree in trees
                     for qualified, name in _definitions(tree)
                     if not named[name])
    assert unnamed == sorted(UNCALLED_BUT_KEPT)
