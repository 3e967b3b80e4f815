"""The demos run end to end, and every name they import from sceneplan
exists in the module they name, which defines each class and function of
them. Demos 04 and 06 train a policy, in about 2 s each."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name[:2])
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "sceneplan"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            obj = getattr(module, alias.name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == node.module, \
                    f"{node.module}.{alias.name} is defined in {obj.__module__}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name[:2])
def test_fast_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    # the demo's temp files (demo 06 keeps its artifacts) go to tmp_path
    env.update(TMPDIR=str(tmp_path), TEMP=str(tmp_path), TMP=str(tmp_path))
    # as CI runs the benchmark and the CLI: a RuntimeWarning fails the demo
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    system_tmp = pathlib.Path(tempfile.gettempdir())
    before = set(system_tmp.glob("sceneplan_demo_*"))
    out = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout
    assert set(system_tmp.glob("sceneplan_demo_*")) <= before
    if demo.name.startswith("06"):
        assert len(list(tmp_path.glob("sceneplan_demo_*"))) == 1
