"""Every imported name in src/, tests/ and demos/ is read somewhere in its
module. A name listed in the module's ``__all__`` counts as read, and so
does an import whose line carries a comment, which gives its reason."""

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src", "tests", "demos")


def python_files():
    for top in DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            yield from (os.path.join(dirpath, f) for f in sorted(filenames)
                        if f.endswith(".py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an import binds that the module never reads."""
    tree = ast.parse(source)
    commented = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type == tokenize.COMMENT}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else ()
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if commented & set(range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]
    assert unused_imports("import os  # for its side effect\n") == []
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


def test_no_unused_imports():
    found = []
    for path in python_files():
        with open(path, encoding="utf-8") as fh:
            found += [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
                      for line, name in unused_imports(fh.read())]
    assert not found, "imported but never read: " + ", ".join(found)
