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


def _statement_names(path):
    """Per top-level statement of a file, the names it reads: bare names,
    attribute names and imported names."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
        out.append((stmt, names))
    return out


def test_every_public_name_is_read():
    # an undecorated top-level function or class of the package must be
    # read somewhere other than its own definition and __init__.py: in the
    # package, the tests or the benchmark
    root = PACKAGE.parent.parent
    files = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((root / "tests").glob("*.py"))
    files += sorted((root / "perfbench").glob("*.py"))
    statements = [(path, stmt, names) for path in files
                  for stmt, names in _statement_names(path)]
    unread = []
    for path, stmt, _ in statements:
        if (path.parent == PACKAGE
                and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.decorator_list
                and not any(stmt.name in names
                            for _, other, names in statements
                            if other is not stmt)):
            unread.append(f"{path.stem}.{stmt.name}")
    assert unread == []
