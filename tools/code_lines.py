"""Count the lines of src/ that hold code, and all its lines.

A line holds code when a token other than a comment, a docstring or layout
starts on it or spans it; a docstring is a string that stands alone as the
first statement of a module, class or function. Prints the code-line count
and the total line count (what `wc -l` gives), then each file's two counts.

    python3 tools/code_lines.py [root]

root defaults to the repository's src directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, all lines) of one Python file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip), text.count("\n")


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    files = sorted(root.rglob("*.py"))
    counts = [count(f) for f in files]
    print(f"{sum(c for c, _ in counts)} code lines, {sum(t for _, t in counts)} lines in all")
    for f, (c, t) in zip(files, counts):
        print(f"  {c:5d} {t:5d}  {f.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
