"""Dead code and the import layering of the package, found with the standard
library's ``ast``: an import that its module never uses, a private
module-level function or class that no package module refers to, a public
one or an export of the package that nothing refers to, a default argument
evaluated once into a value that calls could share, a cycle among the
package's modules, a library module that imports the searches, an import
from outside the standard library, a CLI command that writes its document
or exits itself, and a checking constructor or check called where no
check is due. Last, the modules a launch of the CLI loads."""

import ast
import graphlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import perscert

PACKAGE = Path(perscert.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def imported_names(tree: ast.Module) -> dict:
    """Each name an import binds, to its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def used_names(tree: ast.Module) -> set:
    """Names read as variables, also inside annotations written as strings."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return out


def referenced_names(tree: ast.Module) -> set:
    """Names read as variables or attributes, or imported from another
    module."""
    out = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", [n for n in TREES if n != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    unused = {n: line for n, line in imported_names(tree).items() if n not in used_names(tree)}
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_private_function_and_class_is_referenced():
    referenced = set().union(*map(referenced_names, TREES.values()))
    orphans = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not orphans, f"private definitions nothing refers to: {orphans}"


def test_no_function_has_a_mutable_default_argument():
    """No default of a package function is a list, dict or set display or
    a call: a default is built once, when its function is defined, and every
    call that omits the argument shares it. A table-valued parameter
    defaults to None."""
    shared = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp, ast.Call)
    offenders = [
        f"{name}:{default.lineno} {getattr(node, 'name', 'lambda')}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in node.args.defaults + node.args.kw_defaults
        if isinstance(default, shared)
    ]
    assert not offenders, f"mutable default arguments: {offenders}"


ROOT = Path(__file__).resolve().parents[1]
# the package's modules but __init__.py (an export does not count as a use),
# the tests and the scripts
USERS = [tree for name, tree in TREES.items() if name != "__init__.py"] + [
    ast.parse(path.read_text(), str(path))
    for folder in ("tests", "scripts") for path in ROOT.glob(f"{folder}/*.py")]
USED = set().union(*map(referenced_names, USERS))


def test_every_export_is_used():
    """Each name the package exports is referenced by a package module (its
    own, or another), a test or a script."""
    unused = sorted(set(imported_names(TREES["__init__.py"])).difference(USED))
    assert not unused, f"exports nothing refers to: {unused}"


def registered_command(node) -> bool:
    """Whether a definition is decorated by the CLI's ``_command``, which
    registers it under its command name."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_command" for d in node.decorator_list)


def writes_or_exits(call: ast.Call) -> bool:
    """Whether a call is to the CLI's writers ``_emit`` or ``_fail``, or to
    ``sys.exit`` (or the builtin ``exit``)."""
    func = call.func
    return (isinstance(func, ast.Name) and func.id in {"_emit", "_fail", "exit"}
            or isinstance(func, ast.Attribute) and func.attr == "exit"
            and isinstance(func.value, ast.Name) and func.value.id == "sys")


def test_commands_leave_output_and_exit_to_the_runner():
    """No CLI command writes its document or exits itself: each returns its
    document (and a verdict command whether its property holds), and the
    runner ``_reports`` writes it and sets the exit code."""
    offenders = [
        f"cli.py:{call.lineno} {node.name}"
        for node in TREES["cli.py"].body
        if isinstance(node, ast.FunctionDef) and registered_command(node)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and writes_or_exits(call)
    ]
    assert not offenders, f"commands that write or exit themselves: {offenders}"


def test_every_public_function_and_class_is_referenced():
    """Each public module-level function or class of a package module is
    referenced by a package module, a test or a script; the CLI's commands
    are reached through their names."""
    orphans = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in USED
        and not registered_command(node)
    ]
    assert not orphans, f"public definitions nothing refers to: {orphans}"


def package_imports(tree: ast.Module) -> set:
    """The package modules a module imports from, by relative import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:  # from . import serialize
                out.update(alias.name for alias in node.names)
    return out


IMPORTS = {name.removesuffix(".py"): package_imports(tree) for name, tree in TREES.items()}


def test_package_imports_form_no_cycle():
    try:
        tuple(graphlib.TopologicalSorter(IMPORTS).static_order())
    except graphlib.CycleError as e:
        pytest.fail(f"import cycle among package modules: {e.args[1]}")


def test_the_package_imports_the_standard_library_only():
    """Every import of a package module names ``__future__``, the package, or
    a standard-library module, and the project declares no dependency: the
    writer, the CLI and the linear algebra use no third-party code."""
    outside = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside += [f"{name}:{node.lineno} {module}" for module in modules
                        if module.split(".")[0] not in {"perscert", *sys.stdlib_module_names}]
    assert not outside, f"imports outside the standard library: {outside}"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r"^\[project\]$[^[]*^dependencies = \[\]$", pyproject, re.M)


def test_only_the_cli_and_the_package_import_the_searches():
    importers = {name for name, deps in IMPORTS.items() if "search" in deps}
    assert importers <= {"cli", "__init__"}, f"library modules import search: {importers}"


# The constructors that check (or, for FilteredComplex, normalize) what they
# receive, the checks that run on a value built unchecked (``_validate`` of
# an object, ``_validate_components`` of a morphism, ``_check_axes`` of a
# grid's scaled axes), and each package function that calls one, with why
# it checks. Under the package's one validation rule (``persist``), every
# other builder derives values that are valid by construction and builds
# them with ``_of`` or ``_on``, which check nothing.
CHECKING = {"GF2Matrix", "Grid", "PersistentObject", "FilteredComplex", "DeltaMorphism",
            "MetricInput", "_validate", "_validate_components", "_check_axes"}
CHECKED_CALLS = {
    ("serialize", "decode_object"): "a decoder: the axes, objects and edge maps of a document",
    ("serialize", "decode_morphism"): "a decoder: the component maps of a document",
    ("serialize", "decode_metric"): "a decoder: the dissimilarities of a document",
    ("persist", "Grid.__init__"): "a public constructor: the caller's axes",
    ("persist", "PersistentObject.__init__"): "a public constructor: the caller's grid, "
                                              "objects and edge maps",
    ("persist", "DeltaMorphism.__init__"): "a public constructor: the caller's components",
    ("persist", "DeltaMorphism.from_fn"): "a public constructor: the maps the caller's "
                                          "function gives",
    ("persist", "integer_object"): "a public constructor: the caller's chain",
    ("persist", "constant_object"): "a public constructor: the caller's value and grid",
    ("complexes", "metric_from_coordinates"): "a public constructor: the caller's coordinates",
    ("invariants", "slice_axis"): "the line's grid holds the caller's value",
    ("rectify", "three_halves_check"): "checks the new claim that its axes are consecutive "
                                       "integers",
    ("randgen", "_rand_f2vec_chain"): "a generator: drawn 0/1 rows",
    ("randgen", "rand_real_object"): "a generator: a drawn axis and chain",
    ("randgen", "rand_metric"): "a generator: drawn dissimilarities",
    ("randgen", "rand_filtered_complex"): "a generator: drawn simplices and grades",
}


def checked_calls():
    """(module, function, line, name) of each call of a checking constructor
    or check by its name, bare or as an attribute; function is the qualified
    name of the definition around the call, None at module level."""

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CHECKING:
                yield module, scope, node.lineno, name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, module, scope)

    for name, tree in TREES.items():
        yield from visit(tree, name.removesuffix(".py"), None)


def test_checking_constructors_run_only_where_a_check_is_due():
    """Every package call of a checking constructor or check is on
    CHECKED_CALLS, and every entry there still makes one: decoders, public
    constructors and generators check what arrives, and builders build what
    they derive unchecked."""
    calls = list(checked_calls())
    stray = [f"{module}.py:{line} {name} in {function}"
             for module, function, line, name in calls
             if (module, function) not in CHECKED_CALLS]
    assert not stray, f"checking constructors called by builders: {stray}"
    stale = set(CHECKED_CALLS).difference((module, function) for module, function, _, _ in calls)
    assert not stale, f"allowed callers that call no checking constructor: {stale}"


def test_launching_the_cli_imports_neither_dataclasses_nor_inspect():
    """A fresh interpreter's ``import perscert.cli`` adds neither
    ``dataclasses`` nor ``inspect`` (which loads ``ast``, ``dis`` and
    ``tokenize``) to the modules the bare interpreter had loaded: every
    command runs in a fresh interpreter, and they would cost each launch
    some 14 ms."""
    code = ("import sys; bare = set(sys.modules); import perscert.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "perscert.cli" in added
    assert not {"dataclasses", "inspect"} & set(added), added
