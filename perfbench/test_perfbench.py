"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "fba-sic": {"sweep": {"p_tx_db": [0.0, 6.0]},
                "eval": {"n_blk": 2, "n": 24, "ub_memory": 3}},
    "rnn-sweep": {"detector": {"kind": "rnn",
                               "rnn": {"l_y": 8, "l_ic": 4, "hidden": [8],
                                       "t_rnn": 8, "n_batch": 8, "n_iter": 3,
                                       "learn_rate": 0.003}},
                  "eval": {"n_blk": 2, "n": 24}},
    "gibbs-long": {"detector": {"kind": "gibbs",
                                "gibbs": {"memory": 3, "n_iter": 3,
                                          "n_par": 4, "burn_in": 1}},
                   "eval": {"n_blk": 2, "n": 48}},
}


def tiny(name):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, config={**w.config, **TINY[name]})


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name in TINY:
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {n: w.why for n, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER


def test_reference_covers_every_sized_workload():
    ref = workloads.load_reference()
    for name, w in workloads.WORKLOADS.items():
        assert ref[name]["key"] == w.key, f"rerun make_reference.py for {name}"
        assert ref[name]["p_tx_db"] == w.powers
        assert ("ub_sigmas" in ref[name]) == w.has_ub


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric(tiny_workloads, name, trace):
    result, lines = run.run(ROOT, name, seed=5, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    want = {k: u for k, (u, _) in layers.PER_LAYER.items()} if trace \
        else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert list(result["metrics"]) == list(want)
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_rates_are_byte_identical(tiny_workloads, name):
    bench = run.Bench(ROOT, name, seed=6)
    plain = bench.iteration(traced=False, index=0)
    traced = bench.iteration(traced=True, index=1)
    assert not plain["problems"] and not traced["problems"]
    assert plain["sha"] is not None and plain["sha"] == traced["sha"]


# the layer each workload is built to load; rates drives every detector and
# covers them all, so it is left out of the comparison
TARGET = {"fba-sic": "fba", "rnn-sweep": "training", "gibbs-long": "gibbs"}


@pytest.mark.parametrize("name", sorted(TARGET))
def test_target_layer_dominates_traced_run(tiny_workloads, name):
    result, _ = run.run(ROOT, name, seed=5, seconds=0, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    w = workloads.WORKLOADS[name]
    target = TARGET[name]
    others = [m[f"{layer}.share"] for layer in layers.SHARE_LAYERS
              if layer not in (target, "rates")]
    assert m[f"{target}.share"] > max(others)
    assert (m["training.steps_share"] > 0) == (target == "training")
    assert (m["fba.fba_app.calls"] > 0) == (target == "fba")
    assert (m["gibbs.gibbs_app.calls"] > 0) == (target == "gibbs")
    if target == "fba":
        n_blk = w.config["eval"]["n_blk"]
        assert m["fba.fba_app.calls"] == len(w.powers) * w.stages * n_blk
        assert m["fba.mults_per_app"] == m["fba.mults_per_app_closed"] > 0


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "nlsic" or name.startswith("nlsic.")}


def _write_config(tmp_path, name, seed=3):
    import yaml

    tmp_path.mkdir(exist_ok=True)
    cfg = tiny(name).config_for(seed)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _traced_cli(tmp_path, name, command="evaluate"):
    from nlsic import cli

    path = _write_config(tmp_path, name)
    tracer = Tracer()
    with tracer:
        assert cli.main([command, "-c", str(path)]) == 0
    calls = {}
    for nid in tracer.name_id:
        calls[tracer.names[nid]] = calls.get(tracer.names[nid], 0) + 1
    return tracer, calls


def test_tracer_catches_from_imports_and_restores(tmp_path):
    from nlsic import fba, rates, training

    before = _namespaces()
    orig_app, orig_mean = fba.fba_app, fba.AuxChannel.mean_contexts
    orig_step = training.Adam.step
    tracer = Tracer()
    with tracer:
        assert rates.fba_app is not orig_app
        assert rates.fba_app is fba.fba_app
        assert rates.fba_app.__wrapped__ is orig_app
        assert fba.AuxChannel.mean_contexts is not orig_mean
    assert fba.fba_app is orig_app and rates.fba_app is orig_app
    assert fba.AuxChannel.mean_contexts is orig_mean
    assert training.Adam.step is orig_step
    after = _namespaces()
    for mod, attrs in before.items():
        for attr, obj in attrs.items():
            assert after[mod][attr] is obj, f"{mod}.{attr} not restored"


def test_tracer_counts_every_call(tmp_path):
    tracer, calls = _traced_cli(tmp_path, "fba-sic")
    w = tiny("fba-sic")
    points, n_blk = len(w.powers), w.config["eval"]["n_blk"]
    # rates.py calls fba_app through a name bound by `from .fba import`
    assert calls["fba.fba_app"] == points * w.stages * n_blk
    assert calls["sic.stage_view"] == points * w.stages * n_blk
    # one set of blocks per stage plus one for the upper bound
    assert calls["channel.random_block"] == points * (w.stages + 1) * n_blk
    assert calls["fba.fba_ub"] == points
    assert calls["config.load_config"] == calls["cli.main"] == 1
    assert tracer.rows["fba.fba_app"] == points * n_blk * w.config["eval"]["n"]


@pytest.mark.parametrize("name,span", [("fba-sic", "fba.fba_app"),
                                       ("gibbs-long", "gibbs.gibbs_app")])
def test_counts_repeat_and_match_closed_form(tmp_path, name, span):
    first, _ = _traced_cli(tmp_path / "a", name)
    second, _ = _traced_cli(tmp_path / "b", name)
    assert first.counters[span].by_kind == second.counters[span].by_kind
    per_app = first.counters[span].total / first.rows[span]
    closed = first.extra[f"{span.split('.')[0]}.closed_form"]
    assert per_app == pytest.approx(closed, rel=1e-12)


def test_training_spans_on_rnn(tmp_path):
    tracer, calls = _traced_cli(tmp_path, "rnn-sweep", command="sweep")
    w = tiny("rnn-sweep")
    assert calls["training.adam_step"] == w.train_iters
    assert calls["training.backward"] == w.train_iters
    assert "fba.fba_app" not in calls
    assert tracer.extra["rnn.checkpoint_bytes"] > 0


def test_layer_self_time_and_outer_spans(tmp_path):
    # cli.main [0,100] > rates.x [10,90] > fba.a [20,50] > fba.b [30,40]
    #                                     > rates.y [60,80]
    names = ["cli.main", "rates.x", "fba.a", "fba.b", "rates.y"]
    start = np.array([0, 10, 20, 30, 60], dtype=np.int64) * 10**9
    end = np.array([100, 90, 50, 40, 80], dtype=np.int64) * 10**9
    parent = np.array([-1, 0, 1, 2, 1], dtype=np.int64)
    meta = {"run_id": "t", "names": names, "mults": {}, "rows": {},
            "extra": {}}
    path = tmp_path / "spans.npz"
    np.savez(path, name_id=np.arange(5, dtype=np.int32), parent=parent,
             start=start, end=end, meta=np.array(json.dumps(meta)))
    d = layers.load_dump(path)
    assert d["self"].tolist() == pytest.approx([20.0, 50.0, 30.0, 10.0, 20.0])
    assert d["outer"].tolist() == [True, True, True, False, False]


def test_check_rates_rejects_bad_output(tmp_path):
    w = tiny("fba-sic")
    bench_cfg = _write_config(tmp_path, "fba-sic")
    from nlsic import cli

    assert cli.main(["evaluate", "-c", str(bench_cfg)]) == 0
    good = next((tmp_path / "out").glob("*/rates.csv"))
    assert workloads.check_rates(w, good, {}) == []
    lines = good.read_text().splitlines()

    def variant(edit):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(edit(list(lines))) + "\n")
        return workloads.check_rates(w, path, {})

    assert variant(lambda ls: ["x"] + ls[1:])
    assert variant(lambda ls: ls[:-1])
    nan_rate = lambda ls: ls[:1] + [",".join(  # noqa: E731
        f if i != 3 else "nan" for i, f in enumerate(ls[1].split(",")))] \
        + ls[2:]
    assert variant(nan_rate)
    low_ub = lambda ls: ls[:1] + [",".join(  # noqa: E731
        f if i not in (8, 9, 10) else "0.000000" for i, f in
        enumerate(line.split(","))) for line in ls[1:]]
    ref = {"fba-sic": {"key": w.key, "p_tx_db": w.powers,
                       "i_sic": [1.0] * len(w.powers),
                       "tol": [10.0] * len(w.powers), "ub_sigmas": 6.44}}
    assert workloads.check_rates(w, good, ref) == []
    assert variant(low_ub) == []    # no reference, no bound check
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(low_ub(list(lines))) + "\n")
    assert any("above UB" in p for p in workloads.check_rates(w, path, ref))
    ref["fba-sic"]["tol"] = [0.01] * len(w.powers)
    assert any("outside reference" in p
               for p in workloads.check_rates(w, good, ref))


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fba-sic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
