import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import coopgraph
from coopgraph.multigraph import _BlockTable

PACKAGE = Path(coopgraph.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert [name for name in coopgraph.__all__ if not hasattr(coopgraph, name)] == []
    assert len(set(coopgraph.__all__)) == len(coopgraph.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from coopgraph import *", namespace)
    assert set(coopgraph.__all__) <= namespace.keys()


def test_no_module_keeps_a_global_cache():
    # Caches belong to bound models that callers create, not to modules
    # (an lru_cache would also pin every graph it was called with).
    cached = []
    for info in pkgutil.iter_modules(coopgraph.__path__):
        module = importlib.import_module(f"coopgraph.{info.name}")
        cached += [f"{info.name}.{name}" for name, value in vars(module).items() if hasattr(value, "cache_info")]
    assert cached == []


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names to re-export them.
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(ast.parse(path.read_text(), filename=str(path))))
    }
    assert unused == {}


def _references(tree: ast.AST, skip=None) -> set[str]:
    # Names and attribute names read anywhere in the tree, outside skip.
    inside = set() if skip is None else {id(node) for node in ast.walk(skip)}
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in inside
    }


def test_every_private_helper_has_a_caller():
    # A module-level _name function or class that only its own definition
    # mentions is dead code.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_references(t) for name, t in trees.items() if name != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if node.name not in elsewhere | _references(tree, skip=node):
                    dead.append(f"{module}:{node.name}")
    assert dead == []


TABLE_HELPERS = {"_containment", "_through", "_detours", "_containments", "_buckets", "_between", "_block_links"}


def test_only_multigraph_knows_the_block_table_layout():
    # Other modules use a block table through its methods: they import
    # none of the geodesic helpers behind them and read none of its
    # fields. A SweepTable's rows share a field's name; a read from a
    # parameter annotated SweepTable is that field.
    fields = set(_BlockTable.__slots__)
    leaks = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "multigraph.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        sweeps = {
            node.arg
            for node in ast.walk(tree)
            if isinstance(node, ast.arg) and isinstance(node.annotation, ast.Name) and node.annotation.id == "SweepTable"
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                leaks += [f"{path.name}:{node.lineno}:{a.name}" for a in node.names if a.name in TABLE_HELPERS]
            elif isinstance(node, ast.Attribute) and node.attr in fields:
                if not (isinstance(node.value, ast.Name) and node.value.id in sweeps):
                    leaks.append(f"{path.name}:{node.lineno}:.{node.attr}")
    assert leaks == []


def test_only_the_engines_entry_reads_index_of():
    # Labels become graph indices once, at partition._index_blocks, or at
    # a public call that takes labels: no private function and no method
    # of a private class looks a label up.
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not node.name.startswith("_"):
                continue
            scopes = [node] if isinstance(node, ast.FunctionDef) else [
                f for f in node.body if isinstance(f, ast.FunctionDef)
            ]
            for scope in scopes:
                if any(isinstance(n, ast.Attribute) and n.attr == "index_of" for n in ast.walk(scope)):
                    name = scope.name if scope is node else f"{node.name}.{scope.name}"
                    readers.append(f"{path.stem}.{name}")
    assert readers == ["partition._index_blocks"]


def test_only_the_myerson_table_lookup_searches_a_block():
    # Every table the package values is searched on a cache miss and then
    # only grown and shrunk: no other code in any module names the search,
    # not even to hold it under another name. Path counts and allocations
    # search the coalition's links without a table.
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if any(isinstance(n, ast.Name) and n.id == "_block_table" for n in ast.walk(member)):
                    name = getattr(member, "name", f"line {member.lineno}")
                    users.append(f"{path.stem}.{name}" if member is node else f"{path.stem}.{node.name}.{name}")
    assert users == ["myerson.MyersonModel.table"]


def test_no_module_writes_another_objects_private_attribute():
    # x._name may be assigned only where x is self or cls: a private
    # attribute belongs to its own class's code.
    writes = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr.startswith("_"):
                        if not (isinstance(t.value, ast.Name) and t.value.id in ("self", "cls")):
                            writes.append(f"{path.name}:{t.lineno}:{ast.unparse(t)}")
    assert writes == []


def test_no_float_enters_the_package():
    # Game arithmetic is exact: no module holds a float literal or calls
    # float(). The CLI's timing (round(elapsed, 6)) is the one float.
    floats = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            if literal or call:
                floats.append(f"{path.name}:{node.lineno}")
    assert floats == []


def test_every_import_is_the_package_or_the_standard_library():
    # stdlib-only, no runtime dependency. dataclasses would bring inspect,
    # ast, dis and tokenize into the start of every command.
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "dataclasses" or top != "coopgraph" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}:{name}")
    assert foreign == []


HEAVY = ["ast", "dataclasses", "dis", "inspect", "tokenize"]


def test_importing_the_cli_loads_no_introspection_module():
    # A fresh interpreter, compared against what it had loaded before the
    # import, so that modules the environment's site loads do not count.
    code = "import sys; before = set(sys.modules); import coopgraph.cli; print(*set(sys.modules) - before)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60, check=True, text=True)
    added = done.stdout.split()
    assert "coopgraph.cli" in added
    assert [name for name in HEAVY if name in added] == []
