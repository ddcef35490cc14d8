"""The demos use only names the package still has.

Each demo is parsed, not run (together they take about half a minute), and
every ``from xprompt... import name`` and every ``alias.attr`` on an
imported xprompt module must resolve.
"""

import ast
import glob
import importlib
import os

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_names_resolve(path):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules = {}  # local alias -> imported xprompt module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xprompt"):
            source = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(source, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(getattr(source, alias.name), type(source)):
                    modules[alias.asname or alias.name] = getattr(source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "xprompt":
                    # "import xprompt.x" binds the package; "import xprompt.x as y" binds x
                    name = alias.name if alias.asname else "xprompt"
                    modules[alias.asname or "xprompt"] = importlib.import_module(name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert not missing, f"{os.path.basename(path)} uses names xprompt lacks: {missing}"


def test_every_demo_is_checked():
    assert len(DEMOS) >= 5
