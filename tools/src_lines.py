"""Count the lines of every Python module under src/, and the private
names one module reads from another.

Prints, per module and in total, the physical lines and the code lines:
lines that carry a token other than a comment, a docstring or layout.  A
docstring here is any string that forms a statement on its own.

Then prints each private name that a module reads from a sibling module,
as "reader -> owner._name", and their number.  A read is an import of the
name (from .owner import _name) or an attribute of a module bound by a
relative import (from . import owner; owner._name).  Each such read is a
piece of one module's job done in, or through the internals of, another.

    python3 tools/src_lines.py
"""

import ast
import os
import sys
import token
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LAYOUT = {token.COMMENT, token.NL, token.NEWLINE, token.INDENT, token.DEDENT,
          token.ENCODING, token.ENDMARKER}


def count(path):
    """(physical lines, code lines) of one module."""
    with open(path, "rb") as fh:
        toks = list(tokenize.tokenize(fh.readline))
    code = set()
    prev = token.ENCODING
    for i, tok in enumerate(toks):
        if tok.type in LAYOUT:
            if tok.type not in (token.COMMENT, token.NL):
                prev = tok.type
            continue
        statement_start = prev in (token.NEWLINE, token.INDENT, token.DEDENT, token.ENCODING)
        if tok.type == token.STRING and statement_start and toks[i + 1].type == token.NEWLINE:
            prev = tok.type
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    with open(path, "rb") as fh:
        physical = sum(1 for _ in fh)
    return physical, len(code)


def private_reads(path):
    """The set of (owner, name) private names the module reads from its
    sibling modules."""
    with open(path, "rb") as fh:
        tree = ast.parse(fh.read(), path)
    siblings, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    reads.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in siblings and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            reads.add((node.value.id, node.attr))
    return reads


def main():
    rows, reads = [], []
    for base, _, files in sorted(os.walk(ROOT)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                rows.append((os.path.relpath(path, ROOT), *count(path)))
                reads += [f"{name[:-3]} -> {owner}.{attr}"
                          for owner, attr in sorted(private_reads(path))]
    width = max(len(r[0]) for r in rows + [("total",)])
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>4}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>8}  {sum(r[2] for r in rows):>4}")
    print()
    print("private names read across modules")
    for line in reads:
        print(f"  {line}")
    print(f"total {len(reads)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
