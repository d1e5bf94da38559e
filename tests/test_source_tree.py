"""The package holds only what the program runs, and its modules form layers.

A function, class, method or module-level variable defined in
``src/plucker`` must be named again by code in ``src/plucker`` or in the
benchmark's ``perfbench/*.py``; otherwise only tests reach it, and it
belongs beside them.  A name counts when code uses it: a name, an attribute,
an import, or a string that is a dotted identifier (``perfbench`` looks
functions up by such strings).  Prose in docstrings and comments does not
count.

Every import in ``src/plucker`` sits at module level, where it shows a
module's dependencies, and the modules import each other without a cycle.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "plucker").glob("*.py"))
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _assigned_names(node):
    """Names bound by a module-level assignment statement."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _definitions_and_uses(paths):
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _assigned_names(node):
                    defined.setdefault(name, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and IDENTIFIER.fullmatch(node.value):
                used.update(node.value.split("."))
    return defined, used


def test_every_src_definition_is_used_outside_the_tests():
    defined, _ = _definitions_and_uses(SRC)
    _, used = _definitions_and_uses(SRC + sorted((ROOT / "perfbench").glob("*.py")))
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if not (name.startswith("__") and name.endswith("__"))
                    and name not in used)
    assert not unused, "defined in src/plucker, used only by tests: " + ", ".join(unused)


def _plucker_imports(node, module_names):
    """The plucker modules one import statement names."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names
                if a.name.startswith("plucker.")}
    if node.level == 0 and node.module and node.module.startswith("plucker."):
        return {node.module.split(".")[1]}
    if node.level == 1 and node.module:
        return {node.module.split(".")[0]}
    if node.level == 1 or node.module == "plucker":
        return {a.name for a in node.names if a.name in module_names}
    return set()


def _import_graph():
    """(plucker module -> modules it imports, imports below module level)."""
    module_names = {path.stem for path in SRC}
    graph: dict[str, set[str]] = {}
    nested = []
    for path in SRC:
        tree = ast.parse(path.read_text(), str(path))
        top = {id(node) for node in tree.body}
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                graph[path.stem] |= _plucker_imports(node, module_names)
                if id(node) not in top:
                    nested.append(f"{path.name}:{node.lineno}")
    return graph, nested


def _cycles(graph):
    """One cycle per back edge of a depth-first search, as module paths."""
    found = []
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(mod):
        state[mod] = 1
        path.append(mod)
        for dep in sorted(graph.get(mod, ())):
            if state.get(dep) == 1:
                found.append(" -> ".join(path[path.index(dep):] + [dep]))
            elif dep not in state:
                visit(dep)
        path.pop()
        state[mod] = 2

    for mod in sorted(graph):
        if mod not in state:
            visit(mod)
    return found


def test_imports_are_at_module_level():
    _, nested = _import_graph()
    assert not nested, "import below module level: " + ", ".join(nested)


def test_plucker_modules_import_no_cycle():
    graph, _ = _import_graph()
    cycles = _cycles(graph)
    assert not cycles, "import cycles: " + "; ".join(cycles)
    # the layering this keeps: X-graphs know nothing of Y-monomials, and the
    # relation ideal nothing of the group action on it
    assert "relations" not in graph["invariant_ring"]
    assert "symmetry_rep" not in graph["relations"]


def test_json_is_parsed_only_by_read_json():
    # graph_core.read_json turns the parser's RecursionError on deep JSON into
    # bad input; a second reader would let that traceback through again
    readers = []
    for path in SRC:
        tree = ast.parse(path.read_text(), str(path))
        owner: dict[int, str] = {}
        for node in ast.walk(tree):  # breadth first: a function before its body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(sub), node.name) for sub in ast.walk(node))
            elif isinstance(node, ast.Attribute) and node.attr in ("load", "loads") \
                    and isinstance(node.value, ast.Name) and node.value.id == "json":
                readers.append(f"{path.name}:{owner.get(id(node), '<module>')}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                readers.append(f"{path.name}:{node.lineno} imports from json")
    assert readers == ["graph_core.py:read_json"], readers
