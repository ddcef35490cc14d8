"""The demos use only names the package still has, call them with
arguments their signatures accept, and leave no files behind.

Each demo is parsed, not run (together they take about half a minute).
Every ``from xprompt... import name`` and every ``alias.attr`` on an
imported xprompt module must resolve, and every call to an imported xprompt
name, or to an attribute of one, must bind to its ``inspect.signature``.
"""

import ast
import glob
import importlib
import inspect
import os
import sys
import types

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


def parse(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


MISSING = object()


def import_from(module, name):
    """What ``from module import name`` binds: the attribute, else the
    submodule module.name, as Python falls back to; MISSING when neither
    exists."""
    source = importlib.import_module(module)
    if hasattr(source, name):
        return getattr(source, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{module}.{name}":
            raise
        return MISSING


def xprompt_imports(tree):
    """(local name -> xprompt module, local name -> other xprompt object,
    imported names xprompt lacks)."""
    modules, objects, missing = {}, {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xprompt"):
            for alias in node.names:
                obj = import_from(node.module, alias.name)
                if obj is MISSING:
                    missing.append(f"{node.module}.{alias.name}")
                    continue
                kind = modules if isinstance(obj, types.ModuleType) else objects
                kind[alias.asname or alias.name] = obj
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "xprompt":
                    # "import xprompt.x" binds the package; "import xprompt.x as y" binds x
                    name = alias.name if alias.asname else "xprompt"
                    modules[alias.asname or "xprompt"] = importlib.import_module(name)
    return modules, objects, missing


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_names_resolve(path):
    tree = parse(path)
    modules, _, missing = xprompt_imports(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert not missing, f"{os.path.basename(path)} uses names xprompt lacks: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_calls_bind(path):
    tree = parse(path)
    modules, objects, _ = xprompt_imports(tree)
    owners = {**objects, **modules}
    unbound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in objects:
            target = objects[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and hasattr(owners.get(func.value.id), func.attr)):
            target = getattr(owners[func.value.id], func.attr)
        else:
            continue
        if (any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue  # unpacked arguments cannot be counted from the source
        try:
            inspect.signature(target).bind(*node.args,
                                           **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {ast.unparse(func)}: {exc}")
    assert not unbound, f"{os.path.basename(path)} has calls that do not bind: {unbound}"


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_writes_only_temporary_directories(path):
    """No fixed path under /tmp (concurrent runs would share it) and no
    tempfile.mkdtemp (nothing removes it); tempfile.TemporaryDirectory is
    the way to get a scratch directory."""
    leaks = []
    for node in ast.walk(parse(path)):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.startswith("/tmp/")):
            leaks.append(f"line {node.lineno}: {node.value!r}")
        elif ((isinstance(node, ast.Attribute) and node.attr == "mkdtemp")
              or (isinstance(node, ast.Name) and node.id == "mkdtemp")):
            leaks.append(f"line {node.lineno}: mkdtemp")
    assert not leaks, f"{os.path.basename(path)} leaves files behind: {leaks}"


def test_from_import_falls_back_to_submodules(monkeypatch):
    """``from xprompt import cli`` resolves even when nothing imported
    xprompt.cli before, and a name that is neither attribute nor submodule
    is still reported."""
    import xprompt
    monkeypatch.delitem(sys.modules, "xprompt.cli", raising=False)
    monkeypatch.delattr(xprompt, "cli", raising=False)
    modules, _, missing = xprompt_imports(ast.parse(
        "from xprompt import cli\nfrom xprompt import no_such_name\n"))
    assert modules["cli"].__name__ == "xprompt.cli"
    assert missing == ["xprompt.no_such_name"]


def test_every_demo_is_checked():
    assert len(DEMOS) >= 5
