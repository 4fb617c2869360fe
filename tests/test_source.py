"""Source hygiene checks over the package's modules."""

import ast
import importlib
import pathlib
import re
from collections import Counter

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


def _files():
    """The package's modules, the tests and the benchmark."""
    root = PACKAGE.parent.parent
    return (sorted(PACKAGE.glob("*.py"))
            + sorted((root / "tests").glob("*.py"))
            + sorted((root / "perfbench").glob("*.py")))


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
    files = [p for p in _files() if p.name != "__init__.py"]
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


def _package_trees():
    return [(path, ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _attribute_reads(tree):
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)]


def test_every_field_and_method_is_read():
    # a dataclass field or a non-dunder method of a package class must be
    # read as an attribute somewhere other than its own body: in the
    # package, the tests or the benchmark
    reads = Counter()
    for path in _files():
        reads.update(_attribute_reads(ast.parse(path.read_text())))
    unread = []
    for path, tree in _package_trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (_is_dataclass(cls) and isinstance(stmt, ast.AnnAssign)
                        and reads[stmt.target.id] == 0):
                    unread.append(f"{path.stem}.{cls.name}.{stmt.target.id}")
                if (isinstance(stmt, ast.FunctionDef)
                        and not stmt.name.startswith("__")
                        and reads[stmt.name]
                        == _attribute_reads(stmt).count(stmt.name)):
                    unread.append(f"{path.stem}.{cls.name}.{stmt.name}")
    assert unread == []


def _parameters(fn):
    a = fn.args
    return a.posonlyargs + a.args + a.kwonlyargs + [
        p for p in (a.vararg, a.kwarg) if p is not None]


def test_every_function_parameter_is_read():
    unread = []
    for path, tree in _package_trees():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            names = {node.id for node in ast.walk(fn)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}({p.arg})"
                       for p in _parameters(fn) if p.arg not in names]
    assert unread == []


def _defaulted(fn):
    """(name, position or None, default) of each defaulted parameter; the
    position counts from the first argument a caller writes."""
    a = fn.args
    positional = a.posonlyargs + a.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i - skip, d) for i, (p, d) in enumerate(
        zip(positional[first:], a.defaults), start=first)]
    out += [(p.arg, None, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def _passes(call, name, position, default):
    """Whether a call sets a parameter to something other than its
    default."""
    given = [kw.value for kw in call.keywords if kw.arg == name]
    if position is not None and len(call.args) > position:
        given.append(call.args[position])
    splats = any(kw.arg is None for kw in call.keywords) or any(
        isinstance(arg, ast.Starred) for arg in call.args)
    return splats or any(ast.dump(value) != ast.dump(default)
                         for value in given)


def test_every_default_is_overridden_somewhere():
    # a defaulted parameter of a package function or method must be passed
    # a value other than its default by some call in the package, the tests
    # or the benchmark; a value no caller varies is a constant
    calls = {}
    for path in _files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                calls.setdefault(callee, []).append(node)
    unset = []
    for path, tree in _package_trees():
        owner = {fn: cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            callee = owner[fn] if fn.name == "__init__" else fn.name
            for name, position, default in _defaulted(fn):
                if not any(_passes(call, name, position, default)
                           for call in calls.get(callee, ())):
                    unset.append(f"{path.stem}.{fn.name}({name})")
    assert unset == []


def test_every_traced_name_exists():
    # perfbench/tracing.py wraps these with getattr and no default, so a
    # name deleted from the package would break only the traced benchmark
    tree = ast.parse((PACKAGE.parent.parent / "perfbench" / "tracing.py")
                     .read_text())
    tables = {stmt.targets[0].id: ast.literal_eval(stmt.value)
              for stmt in tree.body if isinstance(stmt, ast.Assign)
              and getattr(stmt.targets[0], "id", None) in ("SPANNED",
                                                            "COUNTED")}
    wanted = [(module, cls, attr)
              for _, module, cls, attr in tables["SPANNED"]]
    wanted += [("quiverdyn.polynomial", "Poly", attr)
               for _, attrs in tables["COUNTED"] for attr in attrs]
    missing = []
    for module, cls, attr in wanted:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not hasattr(owner, attr):
            missing.append(f"{module}.{cls}.{attr}")
    assert missing == []


# where a scalar may be tested against Fraction or float: the coefficient
# domain's one helper, the JSON decoders, and arith's matrix storage, whose
# entries stay Fractions
TYPE_TEST_OWNERS = {("polynomial", "exact_scalar"),
                    ("fileio", "decode_number"), ("fileio", "decode_matrix"),
                    ("arith", "_fraction"), ("arith", "_frozen_row")}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _type_tests(tree):
    """The lines that test a value against Fraction or float:
    isinstance(x, T), or a comparison that reads type(x) and T."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            if _names(node.args[1]) & {"Fraction", "float"}:
                lines.add(node.lineno)
        elif isinstance(node, ast.Compare):
            names = _names(node)
            if "type" in names and names & {"Fraction", "float"}:
                lines.add(node.lineno)
    return lines


def test_exact_or_float_is_decided_in_one_helper():
    stray = []
    for path, tree in _package_trees():
        owned = {line for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)
                 and (path.stem, fn.name) in TYPE_TEST_OWNERS
                 for line in range(fn.lineno, fn.end_lineno + 1)}
        stray += [f"{path.stem}:{line}"
                  for line in sorted(_type_tests(tree) - owned)]
    assert stray == []


def test_the_ls_newton_is_written_once():
    # one loop of the package runs over NEWTON_MAX_ITER, and the damped
    # Newton and the implicit-function Jacobian are gone
    loops = [f"{path.stem}:{node.lineno}" for path, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.For) and "NEWTON_MAX_ITER" in _names(
                 node.iter)
             or isinstance(node, ast.While) and "NEWTON_MAX_ITER" in _names(
                 node.test)]
    assert len(loops) == 1, loops
    text = "".join(path.read_text() for path in PACKAGE.glob("*.py"))
    assert re.findall(r"\b(DAMPING_STEPS|DAMPING_FAILED|reduced_jacobian)\b",
                      text) == []


def test_the_ls_evaluator_and_solve_are_written_once():
    # the field is evaluated by its term plan, not an einsum over a padded
    # coefficient matrix, and only _lane_solve calls np.linalg.solve, with
    # no lane loop
    path = PACKAGE / "lsreduction.py"
    assert re.findall(r"\beinsum\b", path.read_text()) == []
    tree = ast.parse(path.read_text())
    lane_solve, = [fn for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and fn.name == "_lane_solve"]
    inside = range(lane_solve.lineno, lane_solve.end_lineno + 1)
    solves = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "solve"
              and ast.unparse(node) == "np.linalg.solve"]
    assert solves and all(line in inside for line in solves)
    assert not [node for node in ast.walk(lane_solve)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]
