"""Count the code lines of each module under src/: no blank lines, comments
or docstrings.

A line counts when a token other than a comment, a line break or an
indentation change starts on it or spans it, and it is not part of a
docstring (the leading string of a module, class or function body, found
with ast).  A multi-line string that is code counts every line it spans.
`wc -l` counts comments and docstrings too, so a size claim reads this
instead.

    python3 scripts/code_lines.py [root ...]     # default: src
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file at path."""
    with tokenize.open(path) as fh:
        source = fh.read()
    skip = _docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> int:
    roots = [Path(p) for p in (argv if argv else ["src"])]
    total = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
