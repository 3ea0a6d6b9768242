"""Test-only code stays out of src/, and unneeded imports out of a run.

Every module-level function and class of the package must be referenced,
as a name or an attribute, by the package or by the benchmark somewhere
other than its own definition. Code that only tests use belongs in
tests/ (see tests/oracles.py).
"""
import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pilothop").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node) -> Counter:
    """Names referenced in node's subtree, as Name ids and Attribute attrs."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_package_definition_has_a_production_reader():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unread = []
    for path in PACKAGE:
        for node in trees[path].body:
            if isinstance(node, DEFINITIONS):
                # references inside its own body (recursion) do not count
                if total[node.name] - references(node)[node.name] == 0:
                    unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unread, f"defined in src/ but read only by tests: {unread}"


# Modules a serial roc campaign leaves out of its process, by what it
# solves. scipy.optimize (about 19 MB of resident memory) is a test oracle
# only; scipy.linalg (about 8 MB) comes with the first ADMM workspace; the
# process pool and multiprocessing come only with --workers > 1.
GUARDED = ("scipy.optimize", "scipy.linalg", "concurrent.futures.process")


@pytest.mark.parametrize("methods, loaded", [
    ([{"kind": "nnls"}], []),
    (None, ["scipy.linalg"]),  # the default config: the positive control
], ids=["nnls", "default"])
def test_campaign_imports_only_what_it_solves(tmp_path, methods, loaded):
    # the test process may hold any guarded module, so the campaign runs
    # in a fresh interpreter
    argv = ["roc", "--quick", "--trials", "1", "--out", str(tmp_path / "out")]
    if methods is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema_version": 1, "methods": methods}))
        argv += ["--config", str(config)]
    code = (
        "import sys\n"
        "from pilothop import cli\n"
        f"rc = cli.main({argv!r})\n"
        f"print(rc, [name for name in {GUARDED!r} if name in sys.modules])\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loaded!r}", proc.stdout
