"""Line counts of ``src/qubounds/*.py``, printed only: no count is a gate.

    python tests/src_count.py [BASE_TREE]

Prints this tree's ``wc -l`` total, then an ``ast`` split of the same lines into code, docstring (of a module,
class or function), blank and comment lines, so that joined lines or trimmed docstrings do not pass for less
code.  Given the root of another checkout (say, ``git archive`` of a base commit's ``src``), it prints that
tree's counts too and this tree's change from them.  It uses only the standard library.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(root: Path) -> dict:
    """The ``wc -l`` total (newlines) of ``root/src/qubounds/*.py``, then each kind's count of its lines."""
    paths = sorted((root / "src" / "qubounds").glob("*.py"))
    if not paths:
        raise SystemExit(f"no src/qubounds/*.py under {root}")
    totals = dict.fromkeys(("wc -l", "code", "docstring", "blank", "comment"), 0)
    for path in paths:
        text = path.read_text(encoding="utf-8")
        totals["wc -l"] += text.count("\n")
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DOCUMENTED) and node.body:
                first = node.body[0]
                if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                        and isinstance(first.value.value, str):
                    docs.update(range(first.lineno, first.end_lineno + 1))
        for k, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            totals["docstring" if k in docs else "blank" if not stripped else "comment" if stripped.startswith("#")
                   else "code"] += 1
    return totals


def main(argv: list[str]) -> int:
    here = counts(ROOT)
    print("this tree: " + ", ".join(f"{count} {kind}" for kind, count in here.items()) + " lines")
    if argv:
        base = counts(Path(argv[0]))
        print("base:      " + ", ".join(f"{count} {kind}" for kind, count in base.items()) + " lines")
        print("change:    " + ", ".join(f"{here[kind] - base[kind]:+d} {kind}" for kind in here) + " lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
