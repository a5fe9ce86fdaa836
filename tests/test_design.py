"""Design rules of the package, checked on its source with `ast`.

- No module imports another module's private name.
- No import inside a function: every dependency shows at the top of a module.
- Each UPPER_CASE module constant is defined in one module only, so a value
  such as a tolerance has one place where it is decided.
- No nonzero numeric literal is passed as `tol=` or `inner_tol=`: a call
  either takes the callee's default or names the constant it uses.
  `tol=0.0`, an exact containment test, is allowed.
- No two functions, methods and nested functions included, have the same
  body of two or more statements once a leading docstring is dropped: a
  shared body is written once and called or inherited.
- No function parameter defaults to `True` or `False`: a boolean option
  doubles the configurations to test, so a behaviour is either always on or
  a separate function.  Dataclass fields are not parameters.
- Every backticked name in README's "Other entry points" paragraph is in
  `bestpair.__all__`, so the README lists no entry point that is gone.
"""

import ast
import pathlib
import re
from collections import defaultdict

import pytest

import bestpair

MODULES = sorted(pathlib.Path(bestpair.__file__).parent.glob("*.py"))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def module_constants(tree):
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                yield target.id


def literal_number(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def functions(node, prefix=""):
    """(qualified name, node) of every function under node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from functions(child, f"{prefix}{child.name}.")
        else:
            yield from functions(child, prefix)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"sets.py", "solver.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import(path):
    bad = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_function(path):
    bad = [
        f"line {inner.lineno} in {func.name}"
        for func in ast.walk(parse(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(func)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not bad, bad


def test_each_constant_defined_once():
    where = defaultdict(list)
    for path in MODULES:
        for name in module_constants(parse(path)):
            where[name].append(path.name)
    repeated = {name: files for name, files in where.items() if len(files) > 1}
    assert not repeated, repeated


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_literal_tolerance_argument(path):
    bad = [
        f"line {kw.value.lineno}: {kw.arg}={literal_number(kw.value)!r}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg in ("tol", "inner_tol") and literal_number(kw.value) not in (None, 0)
    ]
    assert not bad, bad


def test_no_function_body_written_twice():
    where = defaultdict(list)
    for path in MODULES:
        for name, func in functions(parse(path)):
            body = func.body[1:] if ast.get_docstring(func, clean=False) else func.body
            if len(body) >= 2:
                where["\n".join(map(ast.dump, body))].append(f"{path.name}:{name}")
    repeated = [names for names in where.values() if len(names) > 1]
    assert not repeated, repeated


def defaults(args):
    """(parameter, default) of every parameter of an `ast.arguments` with a default."""
    positional = args.posonlyargs + args.args
    yield from zip(positional[len(positional) - len(args.defaults):], args.defaults)
    yield from ((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)


def test_no_boolean_parameter():
    bad = [
        f"{path.name}:{name}({arg.arg}={default.value})"
        for path in MODULES
        for name, func in functions(parse(path))
        for arg, default in defaults(func.args)
        if isinstance(default, ast.Constant) and isinstance(default.value, bool)
    ]
    assert not bad, bad


def test_readme_entry_points_are_exported():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Other entry points:"):].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", paragraph)
    assert names
    missing = [name for name in names if name not in bestpair.__all__]
    assert not missing, missing
