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

Last prints each module-level name defined under src/ (a function, a class
or an assigned name) that nothing under src/, perfbench/ or tools/ reads,
as "module.name", and their number.  A read is a name in its own module,
an import of it (from .owner import name, from cubefunc.owner import name)
or an attribute of a module bound by an import (owner.name).  Names that
only tests read are listed: they belong in tests/, or nowhere.

Then, in the same way, prints each method of a module-level class under
src/ (dunders aside) whose name no file under src/, perfbench/ or tools/
reads as an attribute (x.name), as "module.Class.name", and their number.
Attributes are not resolved to their class, so a method is read as soon as
any object's attribute of its name is.  This list is informational.

Exits 1 if a module reads a private name of another, else 0.

    python3 tools/src_lines.py
"""

import ast
import os
import sys
import token
import tokenize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.join(REPO, "src")
READERS = ("src", "perfbench", "tools")
PACKAGE = "cubefunc"
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


def _parse(path):
    with open(path, "rb") as fh:
        return ast.parse(fh.read(), path)


def defined_names(tree):
    """The names a module defines at its top level, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if not n.startswith("__")}


def reads(tree, module, modules):
    """The set of (owner, name) that a file reads from the package modules;
    module is the file's own module name, or None outside the package."""
    bound, out = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = node.module or ""
            if node.level == 0 and owner.startswith(PACKAGE):
                owner = owner[len(PACKAGE) + 1:]
            elif node.level != 1:
                continue
            for alias in node.names:
                if not owner and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif owner in modules:
                    out.add((owner, alias.name))
        elif isinstance(node, ast.Name) and module and not isinstance(node.ctx, ast.Store):
            out.add((module, node.id))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            out.add((bound[node.value.id], node.attr))
    return out


def defined_methods(tree):
    """(class, method) of each function in a top-level class body, dunders
    aside."""
    return [(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("__")]


def reader_trees():
    """(module name or None, tree) of every file under src/, perfbench/
    and tools/; the module name is given for the package's own modules."""
    package = os.path.join(ROOT, PACKAGE)
    for reader in READERS:
        for base, _, files in sorted(os.walk(os.path.join(REPO, reader))):
            for name in sorted(files):
                if name.endswith(".py"):
                    own = name[:-3] if base == package else None
                    yield own, _parse(os.path.join(base, name))


def unread_names(modules, trees):
    """Sorted "module.name" of every module-level name under src/ that no
    reader tree reads."""
    seen = set()
    for own, tree in trees:
        seen |= reads(tree, own, modules)
    return [f"{mod}.{name}" for mod, tree in modules.items()
            for name in sorted(defined_names(tree)) if (mod, name) not in seen]


def unread_methods(modules, trees):
    """Sorted "module.Class.method" of every method under src/ whose name
    no reader tree reads as an attribute."""
    seen = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{mod}.{cls}.{name}" for mod, tree in modules.items()
            for cls, name in sorted(defined_methods(tree)) if name not in seen]


def main():
    package = os.path.join(ROOT, PACKAGE)
    modules = {name[:-3]: _parse(os.path.join(package, name))
               for name in sorted(os.listdir(package)) if name.endswith(".py")}
    rows = [(os.path.join(PACKAGE, f"{mod}.py"), *count(os.path.join(package, f"{mod}.py")))
            for mod in modules]
    private = [f"{mod} -> {owner}.{attr}" for mod, tree in modules.items()
               for owner, attr in sorted(reads(tree, None, modules))
               if attr.startswith("_") and not attr.startswith("__")]
    width = max(len(r[0]) for r in rows + [("total",)])
    print(f"{'module':<{width}}  physical  code")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>8}  {code:>4}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>8}  {sum(r[2] for r in rows):>4}")
    print()
    print("private names read across modules")
    for line in private:
        print(f"  {line}")
    print(f"total {len(private)}")
    trees = list(reader_trees())
    for kind, unread in (("module-level names", unread_names(modules, trees)),
                         ("methods", unread_methods(modules, trees))):
        print()
        print(f"{kind} under src/ that nothing under src/, perfbench/ or tools/ reads")
        for line in unread:
            print(f"  {line}")
        print(f"total {len(unread)}")
    return 1 if private else 0


if __name__ == "__main__":
    sys.exit(main())
