#!/usr/bin/env python3
"""Print the code lines and physical lines of src/latmax/*.py, then the code
lines of each module, largest first.

A code line holds a token of Python code: blank lines, comment lines and
the lines of module, class and function docstrings are not counted.
Physical lines are every line of the files.  Run from anywhere:

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "latmax"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIPPED:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in docs)
    return len(lines)


def main() -> None:
    texts = {path.stem: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    counts = {name: code_lines(text) for name, text in texts.items()}
    print(f"code lines: {sum(counts.values()):,}")
    print(f"physical lines: {sum(len(text.splitlines()) for text in texts.values()):,}")
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"  {name}: {count:,}")


if __name__ == "__main__":
    main()
