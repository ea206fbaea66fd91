"""Packaging contract: declared dependencies and the version string."""

import os
import subprocess
import sys
import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]

#: top-level modules `import repro.api` may load beyond the standard library:
#: the package itself and its one runtime dependency
ALLOWED = {"repro", "numpy"}

_PROBE = """
import sys
before = set(sys.modules)
import repro.api
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_stdlib_and_declared_dependencies():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    loaded = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    undeclared = sorted(set(loaded) - set(sys.stdlib_module_names) - ALLOWED)
    assert undeclared == []


def test_version_matches_pyproject():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert repro.__version__ == pyproject["project"]["version"]
