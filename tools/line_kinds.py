"""Sort every line of src/gromov4 into one of four kinds and count them.

The kinds, in the order they are decided:

- docstring: a line of a module, class or function docstring, by `ast`,
  blank lines inside the docstring included;
- code: a line that holds or lies inside any other token, by `tokenize`
  (so a blank line inside a multi-line string is code);
- comment-only: a line whose only token is a comment;
- blank: every other line.

Prints the four counts per module and in total; each row sums to the
module's `wc -l`.  Standard library only:

    python tools/line_kinds.py
"""

from __future__ import annotations

import ast
import glob
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def line_kinds(text: str) -> dict[str, int]:
    lines = text.splitlines()
    kind = ["blank"] * len(lines)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            if kind[tok.start[0] - 1] == "blank":
                kind[tok.start[0] - 1] = "comment"
        elif tok.type not in _LAYOUT:
            for row in range(tok.start[0], tok.end[0] + 1):
                kind[row - 1] = "code"
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            for row in range(doc.lineno, doc.end_lineno + 1):
                kind[row - 1] = "docstring"
    return {k: kind.count(k) for k in KINDS}


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<36}" + "".join(f"{k:>11}" for k in KINDS) + f"{'lines':>8}")
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "gromov4", "*.py"))):
        with open(path, encoding="utf-8") as f:
            counts = line_kinds(f.read())
        for k in KINDS:
            total[k] += counts[k]
        row = os.path.relpath(path, ROOT)
        print(f"{row:<36}" + "".join(f"{counts[k]:>11}" for k in KINDS) + f"{sum(counts.values()):>8}")
    print(f"{'total':<36}" + "".join(f"{total[k]:>11}" for k in KINDS) + f"{sum(total.values()):>8}")


if __name__ == "__main__":
    main()
