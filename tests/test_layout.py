"""Every public name the library defines is used outside the tests.

A top-level function or class without a leading underscore must occur, as a
word, in another module of the package (not `__init__.py`), in its own
module outside its definition, in a demo, or in README.md.  Code that only
tests call belongs beside them in `tests_shared.py`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "oddsphere").glob("*.py") if p.name != "__init__.py")


def test_every_public_definition_has_a_caller_outside_the_tests():
    texts = {p: p.read_text(encoding="utf-8") for p in MODULES}
    shared = [p.read_text(encoding="utf-8") for p in (ROOT / "demos").glob("*.py")]
    shared.append((ROOT / "README.md").read_text(encoding="utf-8"))
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[: start - 1] + lines[node.end_lineno :])
            places = [own, *shared, *(t for p, t in texts.items() if p != path)]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in places):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names that only tests use: {unused}"
