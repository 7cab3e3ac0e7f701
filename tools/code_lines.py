#!/usr/bin/env python3
"""Code lines of Python source files: per file, then in total.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT and is not part of a docstring, that is, of an expression
statement that is only a string. Blank lines, comment lines and docstrings
therefore do not count, and a statement that spans lines counts each of them.

    python3 tools/code_lines.py src/multicate/solver.py src/multicate/baselines.py
    python3 tools/code_lines.py src/multicate
    python3 tools/code_lines.py --root ../parent src/multicate/solver.py

A directory stands for the ``.py`` files directly in it, in sorted order.

``--root`` names the checkout the file paths are relative to (default: the
one holding this script), so two runs, one per checkout, compare a change.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of code lines of the Python source text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docs.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def python_files(root: str, name: str) -> list:
    """name, or if it is a directory under root, its .py files in sorted order."""
    if not os.path.isdir(os.path.join(root, name)):
        return [name]
    return [os.path.join(name, f) for f in sorted(os.listdir(os.path.join(root, name)))
            if f.endswith(".py")]


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+",
                        help="Python files or directories, relative to the checkout")
    parser.add_argument("--root", default=here, help="checkout the file paths are relative to")
    args = parser.parse_args(argv)
    total = 0
    for name in [f for arg in args.files for f in python_files(args.root, arg)]:
        with open(os.path.join(args.root, name), encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
