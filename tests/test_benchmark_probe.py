"""The benchmark's set-up probe (`perfbench/child.py setup CONFIG`) runs
against this tree on every workload's config, so its setup_s stays
measurable when a signature the probe calls changes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_probe_imports_this_tree(tmp_path, name):
    config = tmp_path / "exp.yaml"
    config.write_text(yaml.safe_dump(
        workloads.WORKLOADS[name].config_for(1), sort_keys=False))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "setup", str(config)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(str(ROOT / "src")), done.stdout
