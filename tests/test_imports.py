"""Every tapgkit module imports first, with no other tapgkit module loaded.

An import cycle (say config -> training -> model -> config) breaks only the
entry points that import its modules in one particular order, so each module
is imported first in its own process. One interpreter, which never imports
tapgkit, loads numpy once and forks a child per module; the child imports
its module and exits.
"""

import os
import subprocess
import sys
from pathlib import Path

import tapgkit

PACKAGE = Path(tapgkit.__file__).parent

_FORK_PER_MODULE = """
import importlib, os, sys, traceback
import numpy
failed = []
for name in sys.argv[1:]:
    pid = os.fork()
    if pid == 0:
        try:
            importlib.import_module(name)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
        failed.append(name)
print(" ".join(failed))
"""


def _module_names() -> list[str]:
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


def test_every_module_imports_first():
    names = _module_names()
    assert {"tapgkit", "tapgkit.cli", "tapgkit.config", "tapgkit.data.synthetic"} <= set(names)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", _FORK_PER_MODULE, *names],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [], result.stderr
