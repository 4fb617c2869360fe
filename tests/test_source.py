"""Source hygiene checks over the package's modules."""

import ast
import pathlib

import quiverdyn

PACKAGE = pathlib.Path(quiverdyn.__file__).parent


def test_every_imported_name_is_read():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert unused == {}


def test_every_error_class_is_used_by_another_module():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name in ("errors.py", "__init__.py"):
            continue
        used |= {node.id for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Name)}
    assert sorted(defined - used) == []
