"""Every name a `propcalc` module imports is read in that module, and the
library names that only the tests read are pinned."""

import ast
from pathlib import Path

import propcalc

PACKAGE = Path(propcalc.__file__).parent

# perfbench's tracer rebinds `surjections.to_edge_weights` to its counting
# wrapper, so the name stays bound there although no line of the module reads it
KEPT = {("surjections", "to_edge_weights")}

# top-level functions and classes that no file in src/ or perfbench/ reads:
# prop operations, file formats and oracles kept for the tests and the README
# (ROADMAP item 8); a name leaves this set when it gains a reader or goes
TEST_ONLY = {
    ("generators", "apply_relations_S"), ("generators", "from_edge_weights"),
    ("graphs", "from_json"), ("graphs", "permute_inputs"), ("graphs", "permute_outputs"),
    ("simplex", "face_action"), ("simplex", "face_point"),
    ("sset", "sset_from_json"), ("sset", "sset_to_json"),
    ("surjections", "horizontal_ws"), ("surjections", "identity_ws"),
}


def _unread_imports(tree):
    """The names bound by the module's imports that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read_in_its_module():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    stale = []
    for path in modules:
        if path.name == "__init__.py":
            continue  # the package's imports are its public names, re-exported
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _unread_imports(tree):
            if (path.stem, name) not in KEPT:
                stale.append(f"{path.name}:{line}: {name}")
    assert not stale, "imported but never read:\n" + "\n".join(stale)


def test_the_check_sees_an_unread_import():
    tree = ast.parse("import json\nfrom os import path, sep as s\nprint(path)\n")
    assert _unread_imports(tree) == [(1, "json"), (2, "s")]


def _test_only_names(modules, readers):
    """(module, name) of each top-level function and class of `modules`, a
    dict from module name to tree, that no tree in `readers` reads by name
    or attribute."""
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {(module, node.name) for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read}


def test_library_names_only_the_tests_read_are_pinned():
    # the package's re-exports in __init__.py are not reads
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    perfbench = sorted((PACKAGE.parents[1] / "perfbench").rglob("*.py"))
    assert len(perfbench) > 3
    readers = list(modules.values()) + [ast.parse(path.read_text(), filename=str(path))
                                        for path in perfbench]
    assert _test_only_names(modules, readers) == TEST_ONLY


def test_the_pin_sees_a_name_only_tests_read():
    lib = ast.parse("def f():\n    pass\ndef g():\n    f()\nclass C:\n    pass\n")
    user = ast.parse("import m\nm.C()\n")
    assert _test_only_names({"m": lib}, [lib, user]) == {("m", "g")}
    assert _test_only_names({"m": lib}, [lib]) == {("m", "g"), ("m", "C")}
