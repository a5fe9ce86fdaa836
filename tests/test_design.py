"""Design rules of the package, checked on its source with `ast`.

- No module imports another module's private name.
- Every module-level private name (a function, class or constant whose name
  starts with one underscore) is read somewhere in its own module: since no
  other module may import it, a private name that its module does not read
  is dead.
- No import inside a function: every dependency shows at the top of a module.
- Each UPPER_CASE module constant is defined in one module only, so a value
  such as a tolerance has one place where it is decided.
- No nonzero numeric literal is passed as `tol=` or `inner_tol=`: a call
  either takes the callee's default or names the constant it uses.
  `tol=0.0`, an exact containment test, is allowed.
- No float literal but 0.0 and 1.0 is written in a comparison: a tolerance
  or a bound is a named module constant, and a message that states it is
  built from that constant.
- No two functions, methods and nested functions included, have the same
  body of two or more statements once a leading docstring is dropped: a
  shared body is written once and called or inherited.
- No function parameter defaults to `True` or `False`: a boolean option
  doubles the configurations to test, so a behaviour is either always on or
  a separate function.  Dataclass fields are not parameters.
- Every backticked name in README's "Other entry points" paragraph is in
  `bestpair.__all__`, so the README lists no entry point that is gone.
- Every exception class defined in `errors.py` is raised somewhere in the
  package and named in some test module: an error type that nothing raises
  is dead, and one that no test names has a failure path no test reaches.
- The package imports only the standard library, numpy and itself, and the
  `dependencies` of `pyproject.toml` name exactly the third-party packages
  it imports.  `import bestpair.cli` loads no scipy module, since every
  command pays for what the package imports.
- Every `(owner, attr)` binding that `bench/tracing.py` patches exists, so a
  refactor that drops one fails here and not in a benchmark run.
- The package calls, and imports, no `np.linalg.norm`, `math.dist`,
  `math.hypot` or `np.hypot`: each rounds a length its own way, and every
  length goes through `sets.row_norm` or `sets.max_distance`.
- The package writes no `@` and calls, and imports, no `np.dot`,
  `np.matmul`, `np.inner`, `np.vdot`, `np.einsum`, `np.sum` or
  `np.add.reduce`, nor a method of those names, nor the builtin `sum`: BLAS
  rounds a row by the rows batched with it, numpy sums a row by the layout
  of its array, and `sum` adds in its own order.
  Every sum goes through `sets.sum_source`, on arrays by `sets.row_sum`, so
  the package has one summation rule, written once.
- Generated source is compiled in one place: the package calls `compile`
  and `exec` once each, both in `sets.compiled_function`, which keeps the
  code of each kernel shape.
- The five kinds of `ConvexSet` share one `project_point` and one
  `project`, which run their `point_source` on scalars and on columns: each
  projection is written once, for points and batches.
- The choice between inlining a member's `point_source` and calling the
  member is written once, in `sets.point_projection_source` for the lines
  and `sets.point_projection_constants` for the values they read.  The
  anchored steps of a point or a batch take the lines in
  `operators._step_function`, and Dykstra's cycles in
  `intersection._dykstra_function`; both take the values from
  `sets.member_constants`, the one loop that binds a family's members.
  Every kernel of a set or a family is bound by `sets.Compiled.kernel`,
  through `sets.compiled_function`.  The anchored step and Dykstra are
  each compiled under one def line.
- Each kernel, a set's projection, the anchored step and Dykstra, is one
  build in two forms: two partials of one function that takes `columns`.
  A Dykstra kernel binds `sets.member_constants` and the `isfinite` of its
  guard, and nothing else; both forms end the loop with one exit line,
  which differs only in the gap it tests.
- A kind's `point_constants(k)` takes no form and gives only the set's
  numbers, ints and floats: the form's helpers are bound once per kernel,
  and what the type decides, the affine comparison and the Newton step's
  doubling, is written in the source, so `sets` imports no `operator` and
  no kernel reads a name ending in `moves`, `two` or `check`.
- Compiled code is kept in one way: `Family` and the five kinds share one
  `kernel` and one `__getstate__`, those of `sets.Compiled`, and the
  package names no `cached_property`, so none holds generated code.
"""

import ast
import importlib.util
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import defaultdict
from typing import get_args

import numpy as np
import pytest

import bestpair
from bestpair import intersection, operators, sets
from bestpair.sets import Ball, Box, Compiled, ConvexSet, Ellipsoid, HalfSpace, Hyperplane

MODULES = sorted(pathlib.Path(bestpair.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(pathlib.Path(__file__).parent.glob("test_*.py"))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.parent / "pyproject.toml"
TRACING = README.parent / "bench" / "tracing.py"
THIRD_PARTY = {"numpy"}
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


def private_definitions(tree):
    """(name, line) of every module-level function, class or assigned name of
    tree that starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        for name in names:
            if re.match(r"_[^_]", name):
                yield name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    tree = parse(path)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    dead = [f"line {line}: {name}" for name, line in private_definitions(tree) if name not in read]
    assert not dead, dead


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_literal_in_a_comparison(path):
    bad = [
        f"line {node.lineno}: {node.value!r}"
        for compare in ast.walk(parse(path))
        if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and node.value not in (0.0, 1.0)
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


def raised_names(tree):
    """The name of every class or instance a `raise` statement under tree raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def used_names(tree):
    """Every name and attribute that code under tree reads or writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_error_type_is_raised_and_tested():
    errors = parse(pathlib.Path(bestpair.__file__).parent / "errors.py")
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = {name for path in MODULES for name in raised_names(parse(path))}
    tested = {name for path in TEST_MODULES for name in used_names(parse(path))}
    assert defined
    assert not defined - raised, sorted(defined - raised)
    assert not defined - tested, sorted(defined - tested)


def imported_roots(tree):
    """The top-level package of every absolute import under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_itself(path):
    allowed = set(sys.stdlib_module_names) | THIRD_PARTY | {"bestpair"}
    bad = sorted(set(imported_roots(parse(path))) - allowed)
    assert not bad, bad


def test_dependencies_are_the_imported_third_party_packages():
    tomllib = pytest.importorskip("tomllib")
    requirements = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements}
    imported = {
        root for path in MODULES for root in imported_roots(parse(path))
    } - set(sys.stdlib_module_names) - {"bestpair"}
    assert declared == imported == THIRD_PARTY


def test_cli_import_loads_no_scipy():
    src = str(pathlib.Path(bestpair.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, bestpair.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


def test_traced_bindings_exist():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [binding for _, owners in tracing.TRACED for binding in owners]
    assert bindings
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in bindings
        if not hasattr(owner, attr)
    ]
    assert not missing, missing


OTHER_NORM = re.compile(r"(\w+\.)*(linalg\.norm|hypot)|math\.dist")


def test_row_norms_only_in_row_norm():
    """No call or import of a length function but `sets.row_norm` and
    `sets.max_distance` is written in the package."""
    bad = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                names = [ast.unparse(node.func)]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            bad += [f"{path.name}:{node.lineno}" for name in names if OTHER_NORM.fullmatch(name)]
    assert not bad, bad


OTHER_SUM = re.compile(r"(\w+\.)+(dot|matmul|inner|vdot|einsum|sum|add\.reduce)|sum")


def test_sums_only_in_sum_source():
    """No `@` and no call or import of a numpy sum or product, nor a call of
    the builtin `sum`, is written in the package."""
    bad = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                bad.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Call) and OTHER_SUM.fullmatch(ast.unparse(node.func)):
                bad.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
            elif isinstance(node, ast.ImportFrom):
                bad += [f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                        for alias in node.names
                        if OTHER_SUM.fullmatch(f"{node.module}.{alias.name}")]
    assert not bad, bad


def compile_or_exec_calls(node):
    return [
        call.func.id for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in ("compile", "exec")
    ]


def test_generated_code_is_compiled_in_one_helper():
    everywhere = [call for path in MODULES for call in compile_or_exec_calls(parse(path))]
    assert sorted(everywhere) == ["compile", "exec"]
    found = {
        (path.name, name, call)
        for path in MODULES
        for name, func in functions(parse(path))
        for call in compile_or_exec_calls(func)
    }
    assert found == {("sets.py", "compiled_function", "compile"), ("sets.py", "compiled_function", "exec")}


def test_inlined_kinds_share_one_project_point():
    kinds = get_args(ConvexSet)
    assert len(kinds) == 5
    shared = {cls.project_point for cls in kinds}
    assert len(shared) == 1


def test_inlined_kinds_share_one_project():
    kinds = get_args(ConvexSet)
    assert len(kinds) == 5
    shared = {cls.project for cls in kinds}
    assert len(shared) == 1


def test_sets_and_families_share_one_kernel_cache():
    owners = (bestpair.Family, *get_args(ConvexSet))
    assert {cls.kernel for cls in owners} == {Compiled.kernel}
    assert {cls.__getstate__ for cls in owners} == {Compiled.__getstate__}


def test_no_cached_property():
    found = [
        f"{path.name}:{node.lineno}" for path in MODULES for node in ast.walk(parse(path))
        if isinstance(node, (ast.Name, ast.Attribute))
        and getattr(node, "id", getattr(node, "attr", None)) == "cached_property"
    ]
    assert found == []


def def_heads(module):
    """The def lines of generated source written in the package's `module`."""
    tree = parse(pathlib.Path(bestpair.__file__).parent / module)
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and node.value.startswith("def ")]


def test_the_anchored_step_has_one_head():
    assert def_heads("operators.py") == ["def steps(anchor, y, blocks):"]


def test_dykstra_has_one_head():
    assert def_heads("intersection.py") == ["def dykstra(state, tol, left):"]


@pytest.mark.parametrize("point, column", [
    (sets._point_projection, sets._column_projection),
    (operators._point_steps, operators._column_steps),
    (intersection._point_dykstra, intersection._column_dykstra),
], ids=["projection", "step", "dykstra"])
def test_each_kernel_is_one_build_in_two_forms(point, column):
    assert point.func is column.func
    assert (point.args, point.keywords, column.args, column.keywords) == ((), {"columns": False}, (),
                                                                          {"columns": True})


def test_dykstra_binds_only_member_constants_and_its_guard():
    members = one_of_each_kind(3)
    family = bestpair.Family(members)
    for build, columns in ((intersection._point_dykstra, False), (intersection._column_dykstra, True)):
        assert build(family)[1] == {**sets.member_constants(members, columns), "isfinite": math.isfinite}


def test_dykstra_forms_write_one_exit_line():
    """Both forms end the loop with the same line, on a point's gap and on
    the worst gap of a batch's rows."""
    family = bestpair.Family(one_of_each_kind(3))

    def exit_of(build):
        lines = build(family)[2]()
        last_if = max(k for k, line in enumerate(lines) if line.startswith("    if "))
        return lines[last_if - 1:last_if + 2]

    point, column = exit_of(intersection._point_dykstra), exit_of(intersection._column_dykstra)
    assert point[1:] == ["    if gap <= tol or not isfinite(gap):", "        break"]
    assert column == ["    worst = largest(gap, initial=0.0)",
                      *(line.replace("gap", "worst") for line in point[1:])]


def test_dykstra_forms_write_one_return_line():
    """Both forms return the state, the value their exit line tests and the
    cycles left; the columns add the state held before the last cycle."""
    family = bestpair.Family(one_of_each_kind(3))
    point, column = (build(family)[2]()[-1]
                     for build in (intersection._point_dykstra, intersection._column_dykstra))
    assert point.startswith("return [") and point.endswith("], gap, left")
    assert column == point.replace("], gap, left", "], worst, left, before")


def calls_of(node, name):
    return any(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == name
        for call in ast.walk(node)
    )


def test_point_kernels_share_one_dispatch():
    source_readers, constant_readers, dispatchers, constant_dispatchers = set(), set(), set(), set()
    compilers = set()
    for path in MODULES:
        for name, func in functions(parse(path)):
            where = f"{path.name}:{name}"
            attrs = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
            if "point_source" in attrs:
                source_readers.add(where)
            if "point_constants" in attrs:
                constant_readers.add(where)
            if calls_of(func, "point_projection_source"):
                dispatchers.add(where)
            if calls_of(func, "point_projection_constants"):
                constant_dispatchers.add(where)
            if calls_of(func, "compiled_function"):
                compilers.add(where)
    assert source_readers == {
        "sets.py:point_projection_source", "sets.py:_projection_function",
        "sets.py:_projection_function.body",
    }
    assert constant_readers == {"sets.py:point_projection_constants", "sets.py:_projection_function"}
    assert dispatchers == {
        "operators.py:_step_function", "operators.py:_step_function.body",
        "intersection.py:_dykstra_function", "intersection.py:_dykstra_function.body",
    }
    assert constant_dispatchers == {"sets.py:member_constants"}
    # the kernels of sets and families are bound by `Compiled.kernel` alone
    assert compilers == {"sets.py:column_sum", "sets.py:_list_distance", "sets.py:_secular_root",
                         "sets.py:Compiled.kernel"}


def test_bounding_radius_writes_no_newton_loop():
    """`Ellipsoid.bounding_radius` runs the projection's Newton source, compiled
    by `sets._secular_root`: it holds no loop of its own and no `errstate`."""
    [method] = [func for name, func in functions(parse(pathlib.Path(sets.__file__)))
                if name == "Ellipsoid.bounding_radius"]
    assert not [node for node in ast.walk(method) if isinstance(node, (ast.For, ast.While))]
    assert "errstate" not in {node.attr for node in ast.walk(method) if isinstance(node, ast.Attribute)}
    assert calls_of(method, "_secular_root")


def one_of_each_kind(n):
    """A set of each of the five kinds in R^n."""
    ones = np.ones(n)
    return (Ball(np.zeros(n), 1.0), HalfSpace(ones, 0.5), Hyperplane(ones, 0.5), Box(-ones, ones),
            Ellipsoid(np.zeros(n), np.arange(1.0, n + 1.0)))


@pytest.mark.parametrize("n", [1, 2, 8])
def test_point_constants_are_the_sets_numbers(n):
    """Each kind's `point_constants(k)` takes no form and gives ints and
    floats only: helpers and comparisons are no values of a set."""
    kinds = one_of_each_kind(n)
    assert {type(s) for s in kinds} == set(get_args(ConvexSet))
    for s in kinds:
        values = s.point_constants("k")
        assert values and all(name.startswith("k") for name in values)
        assert {type(v) for v in values.values()} <= {int, float}, type(s).__name__


def test_sets_imports_no_operator():
    tree = parse(pathlib.Path(sets.__file__))
    assert "operator" not in set(imported_roots(tree))


def test_no_kernel_reads_a_per_set_helper(compiled_sources):
    """The affine comparison, Newton's doubling and the residual check are
    written in the source or bound once per kernel as a helper: no
    generated kernel reads a name ending in `moves`, `two` or `check`."""
    family = bestpair.Family(one_of_each_kind(3))
    for build in (operators._point_steps, operators._column_steps, intersection._point_dykstra,
                  intersection._column_dykstra):
        family.kernel(build)
    for s in family.sets:
        s.kernel(sets._point_projection)
        s.kernel(sets._column_projection)
    kernels = [source for source in compiled_sources if not source.startswith("def column_sum(")]
    assert len(kernels) == 4 + 2 * 5
    names = {node.id for source in kernels for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Name)}
    assert "check_residual" in names
    assert not [name for name in names if name.endswith(("moves", "two", "check"))]
