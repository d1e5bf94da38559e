"""The package holds only what the program runs.

A function, class or method defined in ``src/plucker`` must be named again
by code in ``src/plucker`` or in the benchmark's ``perfbench/*.py``;
otherwise only tests reach it, and it belongs beside them.  A name counts
when code uses it: a name, an attribute, an import, or a string that is a
dotted identifier (``perfbench`` looks functions up by such strings).  Prose
in docstrings and comments does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions_and_uses(paths):
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
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
    src = sorted((ROOT / "src" / "plucker").glob("*.py"))
    defined, _ = _definitions_and_uses(src)
    _, used = _definitions_and_uses(src + sorted((ROOT / "perfbench").glob("*.py")))
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if not (name.startswith("__") and name.endswith("__"))
                    and name not in used)
    assert not unused, "defined in src/plucker, used only by tests: " + ", ".join(unused)
