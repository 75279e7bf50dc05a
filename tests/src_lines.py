"""Line counts of the package's modules: code, docstring, comment and blank.

Run::

    python tests/src_lines.py

Each line of a ``src/wshare`` module is counted once, in the first of these
kinds that holds it: a docstring line (read with the ``ast`` module: the
lines of a module's, class's or function's leading string), a blank line, a
comment line (nothing but a ``#`` comment), or else a code line.  Pytest
does not collect this file; ``tests/test_package.py`` checks that the four
counts add up to each file's length.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """``path``'s lines per kind, in :data:`KINDS` order."""
    text = path.read_text()
    docstrings = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("docstring" if number in docstrings else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main() -> int:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<14}" + "".join(f"{kind:>10}" for kind in (*KINDS, "lines")))
    for path in sorted((ROOT / "src" / "wshare").glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<14}" + "".join(f"{value:>10,}" for value in (*counts.values(), sum(counts.values()))))
    print(f"{'src/':<14}" + "".join(f"{value:>10,}" for value in (*total.values(), sum(total.values()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
