"""The benchmark's set-up probe (`perfbench/child.py setup CONFIG`) runs
against this tree on every workload's config, so its setup_s stays
measurable when a signature the probe calls changes; and the names its
tracer binds in this tree still exist and are called as it counts them."""

import collections
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", "workloads.py")
tracer = _load("perfbench_tracer", "tracer.py")


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


def test_tracer_counts_the_upper_bound_blocks(tmp_path):
    """The tracer reads the length of fba_ub's `blocks` argument and counts
    channel.random_block calls: one per block for each stage and for the
    bound.  One sweep point runs in this process, so every call is seen."""
    from nlsic import cli

    cfg = workloads.WORKLOADS["fba-sic"].config_for(1)
    n_blk, stages = 2, cfg["sic"]["stages"]
    cfg["sweep"] = {"p_tx_db": cfg["sweep"]["p_tx_db"][:1]}
    cfg["eval"] = {**cfg["eval"], "n_blk": n_blk, "n": 24}
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    with tracer.Tracer() as tr:
        assert cli.main(["evaluate", "-c", str(path)]) == 0
    calls = collections.Counter(tr.names[nid] for nid in tr.name_id)
    assert tr.extra["fba.fba_ub.blocks"] == n_blk
    assert calls["fba.fba_ub"] == 1
    assert calls["channel.random_block"] == (stages + 1) * n_blk
    # perfbench/layers.py reads this span as rates.estimate_sic.self_ms
    assert calls["rates.estimate_sic"] == 1


def test_tracer_times_the_sampler_means(tmp_path):
    """The tracer wraps AuxChannel.mean_contexts (its METHODS), and
    perfbench/layers.py reads the fba.mean_contexts.* metrics from those
    spans: a one-point, one-block Gibbs evaluate records them inside the
    sampler's span, and the multiplications the sampler tallies equal the
    closed form of its executed work for the block (test_gibbs.py).  The
    block is small enough to sweep in this process."""
    from nlsic import cli, config, fba
    spec = importlib.util.spec_from_file_location(
        "gibbs_counts", ROOT / "tests" / "test_gibbs.py")
    test_gibbs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(test_gibbs)

    cfg = workloads.WORKLOADS["gibbs-long"].config_for(1)
    n = 16
    assert cfg["sic"]["stages"] == 1
    cfg["sweep"] = {"p_tx_db": cfg["sweep"]["p_tx_db"][:1]}
    cfg["eval"] = {**cfg["eval"], "n_blk": 1, "n": n}
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    with tracer.Tracer() as tr:
        assert cli.main(["evaluate", "-c", str(path)]) == 0
    names = [tr.names[nid] for nid in tr.name_id]
    [sampler] = [i for i, name in enumerate(names)
                 if name == "gibbs.gibbs_apps"]
    means = [i for i, name in enumerate(names)
             if name == "fba.mean_contexts"]
    assert means
    assert all(tr.parent[i] == sampler for i in means)

    run = config.load_config(path)
    aux = fba.build_aux_channel(config.build_channel(run), run.gibbs.memory,
                                build_table=False)
    assert tr.counters["gibbs.gibbs_apps"].total == \
        test_gibbs.executed_multiplications(aux, run.gibbs, n)
