"""Every function and autograd op that the benchmark's tracer wraps still
exists: a traced run whose target is gone exits 0 without its per-layer
metrics, so renaming or deleting a traced name must fail here instead."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# install() patches module globals, so it runs in a process of its own
PROBE = """
import json, sys
sys.path.insert(0, "perfbench")
import xprompt
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_tracer_finds_every_target():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
