"""The package holds what its entry point runs and nothing only tests use."""

import ast
import pathlib

import ergotrans

PACKAGE = pathlib.Path(ergotrans.__file__).parent
# the console script and ``python -m ergotrans.cli`` enter here
ENTRY_POINTS = {("cli.py", "main")}


def _public_definitions(trees):
    """``(file, node, is_method)`` for every module-level function and class, and every method."""
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield file, node, False
            elif isinstance(node, ast.ClassDef):
                yield file, node, False
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield file, sub, True


def test_every_public_function_and_method_has_a_caller_in_the_package():
    # public classes count too; a reference inside the definition itself
    # (recursion, a class naming itself) does not count, nor does an import;
    # a method counts as referenced only through an attribute
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    refs = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.append((file, node.lineno, node.attr, True))
            elif isinstance(node, ast.Name):
                refs.append((file, node.lineno, node.id, False))
    unused = []
    for file, node, is_method in _public_definitions(trees):
        if node.name.startswith("_") or (file, node.name) in ENTRY_POINTS:
            continue
        if not any(name == node.name and (attr or not is_method)
                   and not (ref_file == file and node.lineno <= line <= node.end_lineno)
                   for ref_file, line, name, attr in refs):
            unused.append(f"{file}:{node.lineno} {node.name}")
    assert unused == []
