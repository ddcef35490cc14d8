"""The demos use only names the package still has, call them with
arguments their signatures accept, and leave no files behind.

Each demo is parsed, not run (together they take about half a minute).
Every ``from xprompt... import name`` and every ``alias.attr`` on an
imported xprompt module must resolve, every call to an imported xprompt
name, or to an attribute of one, must bind to its ``inspect.signature``,
a string literal or ``os.path.join(...)`` may bind only to a parameter
annotated ``str`` (or not at all), and a call whose result is unpacked must
be annotated to return a tuple, if it is annotated at all.
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


def xprompt_callee(call, modules, objects):
    """The imported xprompt name, or attribute of one, that call calls; None
    for any other callee."""
    func = call.func
    owners = {**objects, **modules}
    if isinstance(func, ast.Name) and func.id in objects:
        return objects[func.id]
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and hasattr(owners.get(func.value.id), func.attr)):
        return getattr(owners[func.value.id], func.attr)
    return None


def xprompt_calls(tree):
    """(call, callee) for each call to an imported xprompt name, or to an
    attribute of one, whose arguments are not unpacked: unpacked arguments
    cannot be counted from the source."""
    modules, objects, _ = xprompt_imports(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = xprompt_callee(node, modules, objects)
        if target is None or (any(isinstance(arg, ast.Starred) for arg in node.args)
                              or any(kw.arg is None for kw in node.keywords)):
            continue
        yield node, target


def bind(call, target):
    """The arguments of call, as AST nodes, bound to target's parameters."""
    return inspect.signature(target).bind(*call.args,
                                          **{kw.arg: kw.value for kw in call.keywords})


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_calls_bind(path):
    unbound = []
    for node, target in xprompt_calls(parse(path)):
        try:
            bind(node, target)
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {ast.unparse(node.func)}: {exc}")
    assert not unbound, f"{os.path.basename(path)} has calls that do not bind: {unbound}"


def is_path(arg) -> bool:
    return ((isinstance(arg, ast.Constant) and isinstance(arg.value, str))
            or (isinstance(arg, ast.Call) and ast.unparse(arg.func) == "os.path.join"))


def paths_to_other_types(tree):
    """Calls that pass a string literal or an os.path.join(...) to a parameter
    annotated with a type other than str: a path where, say, a checked
    checkpoint.Fragment is wanted binds, and fails only when the demo runs."""
    wrong = []
    for node, target in xprompt_calls(tree):
        try:
            bound = bind(node, target)
        except TypeError:
            continue  # test_demo_calls_bind reports it
        params = inspect.signature(target).parameters
        for name, arg in bound.arguments.items():
            note = params[name].annotation
            if not is_path(arg) or note is inspect.Parameter.empty:
                continue
            text = note if isinstance(note, str) else inspect.formatannotation(note)
            if "str" not in (part.strip() for part in text.split("|")):
                wrong.append(f"line {node.lineno}: {ast.unparse(node.func)} gets a path "
                             f"for {name}: {text}")
    return wrong


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_passes_paths_only_to_str_parameters(path):
    wrong = paths_to_other_types(parse(path))
    assert not wrong, f"{os.path.basename(path)} passes paths where other types go: {wrong}"


def test_the_path_check_sees_a_path_for_a_fragment():
    wrong = paths_to_other_types(ast.parse(
        "import os\n"
        "from xprompt.checkpoint import PROMPT_FORMAT, load_prompt, read_manifest, save_prompt\n"
        "save_prompt(bank, os.path.join(tmp, 'prompt'))\n"
        "again = load_prompt(read_manifest(os.path.join(tmp, 'prompt'), PROMPT_FORMAT))\n"
        "again = load_prompt(os.path.join(tmp, 'prompt'))\n"
        "again = load_prompt('prompt')\n"))
    assert wrong == ["line 5: load_prompt gets a path for frag: Fragment",
                     "line 6: load_prompt gets a path for frag: Fragment"]


def stale_unpackings(tree):
    """Assignments that unpack a call to an xprompt name whose return
    annotation is present and is not a tuple."""
    modules, objects, _ = xprompt_imports(tree)
    stale = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)):
            continue
        target = xprompt_callee(node.value, modules, objects)
        if target is None:
            continue
        returns = inspect.signature(target).return_annotation
        if returns is inspect.Signature.empty:
            continue
        text = returns if isinstance(returns, str) else inspect.formatannotation(returns)
        if text.partition("[")[0] != "tuple":
            stale.append(f"line {node.lineno}: {ast.unparse(node.value.func)} returns {text}")
    return stale


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_unpacks_only_tuples(path):
    """A call whose result no longer is a tuple still binds, so unpacking it
    fails only when the demo runs; the return annotation catches it here."""
    stale = stale_unpackings(parse(path))
    assert not stale, f"{os.path.basename(path)} unpacks results that are not tuples: {stale}"


def test_the_unpacking_check_sees_a_stale_line():
    stale = stale_unpackings(ast.parse(
        "from xprompt.checkpoint import load_prompt\n"
        "from xprompt.pruning import mask_gradients\n"
        "again, stage = load_prompt('p')\n"
        "g_t, g_z = mask_gradients(bank, bb, batch)\n"))
    assert stale == ["line 3: load_prompt returns PromptBank"]


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
