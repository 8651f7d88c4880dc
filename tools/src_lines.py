"""Count the lines of every Python module under src/.

Prints, per module and in total, the physical lines and the code lines:
lines that carry a token other than a comment, a docstring or layout.  A
docstring here is any string that forms a statement on its own.

    python3 tools/src_lines.py
"""

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


def main():
    rows = []
    for base, _, files in sorted(os.walk(ROOT)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                rows.append((os.path.relpath(path, ROOT), *count(path)))
    width = max(len(r[0]) for r in rows + [("total",)])
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>4}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>8}  {sum(r[2] for r in rows):>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
