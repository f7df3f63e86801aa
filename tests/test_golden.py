"""The byte contract: tiny versions of the benchmark's three workloads, at
one seed, write the artifacts recorded in tests/data/golden.json, and each
detector gives one stage the APP array recorded there.

The CSVs print six decimals, so the APP arrays and the rnn checkpoints are
what show a change of last bits.  Those bits belong to the code, numpy, the
BLAS and the CPU together, so the file keeps one entry per fingerprint of
the last three.  Where this environment's fingerprint is not recorded, the
test skips and names the fingerprint and the hashes it got.

    python tests/test_golden.py

prints this environment's entry in the file's layout, ready to record.  A
change that moves outputs on purpose records the new hashes and states the
old and new ones.
"""

import contextlib
import copy
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("data") / "golden.json"
SEED = 1

# dotted config key -> value, shrinking each workload to a fraction of a
# second while keeping its stages, trellis memory, warm starts and chains
TINY = {
    "fba-sic": {"sweep.p_tx_db": [4.0, 8.0], "eval.n_blk": 2, "eval.n": 16},
    "rnn-sweep": {"detector.rnn.n_iter": 4, "detector.rnn.n_batch": 8,
                  "eval.n_blk": 2, "eval.n": 16},
    "gibbs-long": {"detector.gibbs.n_iter": 6, "detector.gibbs.n_par": 8,
                   "eval.n_blk": 1, "eval.n": 24},
}


def fingerprint() -> dict:
    """numpy's version, BLAS entry and the SIMD extensions found on this CPU,
    as np.show_config reports them.  The BLAS entry leaves out the
    directories the wheel was built in, which do not bear on the bits."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {k: v for k, v in blas.items() if "directory" not in k},
            "simd_found": config["SIMD Extensions"]["found"]}


def fingerprint_key(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


def benchmark_workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def tiny_config(workload) -> dict:
    cfg = copy.deepcopy(workload.config_for(SEED))
    for key, value in TINY[workload.name].items():
        *sections, leaf = key.split(".")
        node = cfg
        for section in sections:
            node = node[section]
        node[leaf] = value
    return cfg


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stage_apps(path: Path, run_dir: Path) -> np.ndarray:
    """A workload's detector on two fresh blocks at its first sweep point,
    at its last stage."""
    from nlsic import channel, cli, config, fba, gibbs, rnn, sic

    cfg = config.load_config(path)
    chan = config.build_channel(cfg).with_transmit_power_db(
        cfg.sweep_p_tx_db[0])
    rng = np.random.default_rng(SEED)
    blocks = channel.simulate_batch(
        chan, channel.draw_symbols(chan, (2, cfg.eval_n), rng), rng)
    view = sic.stage_view(sic.SicPlan(cfg.stages, cfg.eval_n), cfg.stages,
                          blocks.x)
    if cfg.detector_kind == "fba":
        aux = fba.build_aux_channel(chan, cfg.fba.memory, future=cfg.fba.future)
        return fba.fba_point_apps(aux, [blocks.y], [view])[0].probs
    if cfg.detector_kind == "gibbs":
        aux = fba.build_aux_channel(chan, cfg.gibbs.memory, build_table=False)
        return gibbs.gibbs_apps(aux, blocks.y, view, cfg.gibbs, rng).probs
    model = rnn.load_model(
        cli._model_stem(run_dir, cfg.stages, cfg.sweep_p_tx_db[0]))
    return rnn.rnn_apps(model, blocks.y, view).probs


def compute_hashes() -> dict:
    """sha256 by name of every artifact the tiny workloads write, each run
    in its own subdirectory of the current directory, and of each
    detector's stage APP array."""
    from nlsic import cli

    hashes, workloads = {}, benchmark_workloads()
    for name in TINY:
        Path(name).mkdir()
        with contextlib.chdir(name):
            path = Path("exp.yaml")
            path.write_text(yaml.safe_dump(tiny_config(workloads[name]),
                                           sort_keys=False))
            for command in workloads[name].commands:
                assert cli.main([command, "-c", str(path)]) == 0, \
                    (name, command)
            [run_dir] = Path("out").iterdir()
            for artifact in sorted(run_dir.rglob("*")):
                if artifact.is_file() and artifact.name != "manifest.json":
                    rel = artifact.relative_to(run_dir).as_posix()
                    hashes[f"{name}/{rel}"] = _sha(artifact.read_bytes())
            apps = _stage_apps(path, run_dir)
        hashes[f"{name}/stage_apps"] = _sha(
            np.ascontiguousarray(apps, dtype="<f8").tobytes())
    return hashes


def entry() -> dict:
    """This environment's golden-file entry: {key: {fingerprint, hashes}}."""
    fp = fingerprint()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        hashes = compute_hashes()
    return {fingerprint_key(fp): {"fingerprint": fp, "hashes": hashes}}


def test_artifacts_match_the_golden_file():
    record = entry()
    [(key, got)] = record.items()
    recorded = json.loads(GOLDEN.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"{GOLDEN.name} records no hashes for this numeric "
                    f"environment; its entry would be {json.dumps(record)}")
    assert recorded["fingerprint"] == got["fingerprint"]
    assert got["hashes"] == recorded["hashes"]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    # the commands' own messages go to stderr, leaving the entry on stdout
    with contextlib.redirect_stdout(sys.stderr):
        record = entry()
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    print()
