"""Per-layer metrics from the span dumps of a traced run.

A span's layer is the module part of its name.  Its *layer self time* is its
duration minus the time spent in nested spans of other layers; nested spans of
the same layer count toward it.  A layer's *share* of an iteration is the
time covered by its outermost spans over the iteration's wall time, which is
measured from outside the process.  ``training.steps_share`` is the share
of the spans of one training step (batch, gradient, Adam update), which
leaves out the one-time work of ``train_stage`` such as the first-call
imports of its calibration run.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from tracer import LAYERS, PEAK_KEYS

SHARE_LAYERS = ("channel", "sic", "fba", "gibbs", "rnn", "training", "rates")
STEP_SPANS = ("training.make_batch", "training.backward", "training.adam_step")

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "fba.fba_app.ms_p50": ("ms", "lower"),
    "fba.fba_app.ms_p90": ("ms", "lower"),
    "fba.fba_app.calls": ("count", "lower"),
    "fba.fba_ub.ms_per_block": ("ms", "lower"),
    "fba.mults_per_app": ("count", "lower"),
    "fba.mults_per_app_closed": ("count", "lower"),
    "fba.mmults_per_s": ("Mmul/s", "higher"),
    "fba.build_aux_channel.ms": ("ms", "lower"),
    "fba.mean_contexts.us_p50": ("us", "lower"),
    "fba.mean_contexts.calls": ("count", "lower"),
    "gibbs.gibbs_app.ms_p50": ("ms", "lower"),
    "gibbs.gibbs_app.calls": ("count", "lower"),
    "gibbs.bit_updates_per_s": ("1/s", "higher"),
    "gibbs.mults_per_app": ("count", "lower"),
    "gibbs.mults_per_app_closed": ("count", "lower"),
    "gibbs.uniform_bytes": ("B", "lower"),
    "training.make_batch.ms_p50": ("ms", "lower"),
    "channel.simulate_batch.ms_p50": ("ms", "lower"),
    "rnn.gather_inputs.ms_p50": ("ms", "lower"),
    "rnn.forward.ms_p50": ("ms", "lower"),
    "training.backward.self_ms_p50": ("ms", "lower"),
    "training.adam_step.ms_p50": ("ms", "lower"),
    "training.iters_per_s": ("1/s", "higher"),
    "rnn.rnn_app.ms_p50": ("ms", "lower"),
    "rnn.rnn_app.calls": ("count", "lower"),
    "rnn.mults_per_step": ("count", "lower"),
    "rnn.mults_per_step_closed": ("count", "lower"),
    "rnn.save_model.ms": ("ms", "lower"),
    "rnn.load_model.ms": ("ms", "lower"),
    "rnn.checkpoint_bytes": ("B", "lower"),
    "channel.random_block.ms_p50": ("ms", "lower"),
    "channel.random_block.calls": ("count", "lower"),
    "sic.stage_view.us_p50": ("us", "lower"),
    "sic.stage_view.calls": ("count", "lower"),
    "rates.estimate_sic.self_ms": ("ms", "lower"),
    "config.load_config.ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    **{f"{layer}.share": ("frac", "lower") for layer in SHARE_LAYERS},
    "training.steps_share": ("frac", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}


def load_dump(path) -> dict:
    """Spans of one traced command with per-span durations, layer self
    times and an outermost-in-its-layer flag."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["meta"]))
        name_id, parent = z["name_id"], z["parent"]
        dur = (z["end"] - z["start"]).astype(np.float64) * 1e-9
    layer_index = {layer: i for i, layer in enumerate(LAYERS)}
    name_layer = np.array([layer_index[n.split(".")[0]] for n in meta["names"]],
                          dtype=np.int64)
    layer = name_layer[name_id] if len(name_id) else np.empty(0, np.int64)
    n = len(dur)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    # children are recorded after their parents: fold same-layer children
    # into their parent bottom-up, and mark layers among ancestors top-down
    par, lay = parent.tolist(), layer.tolist()
    for sid in range(n - 1, -1, -1):
        p = par[sid]
        if p >= 0 and lay[p] == lay[sid]:
            self_t[p] += self_t[sid]
    anc = [0] * n
    outer = np.ones(n, dtype=bool)
    for sid in range(n):
        p = par[sid]
        if p >= 0:
            anc[sid] = anc[p] | (1 << lay[p])
            outer[sid] = not (anc[sid] >> lay[sid]) & 1
    return {"meta": meta, "names": meta["names"], "name_id": name_id,
            "dur": dur, "self": self_t, "outer": outer, "layer": layer}


def per_layer_metrics(iterations: list, overhead_frac: float) -> dict:
    """iterations: [(wall_s, [dump paths of its commands])] of the traced
    iterations.  Returns name -> value for every PER_LAYER metric; a function
    the workload never calls reports 0."""
    dur = defaultdict(list)       # span name -> durations over all calls
    selfs = defaultdict(list)     # span name -> layer self times
    calls = defaultdict(list)     # span name -> calls per iteration
    shares = defaultdict(list)    # layer -> share per iteration
    step_shares = []
    cli_self = []
    mults, rows, extra = defaultdict(float), defaultdict(float), \
        defaultdict(float)
    for wall, paths in iterations:
        it_calls = defaultdict(int)
        covered = np.zeros(len(LAYERS))
        it_cli = 0.0
        it_steps = 0.0
        for path in paths:
            d = load_dump(path)
            names = d["names"]
            for nid, name in enumerate(names):
                sel = d["name_id"] == nid
                dur[name] += d["dur"][sel].tolist()
                selfs[name] += d["self"][sel].tolist()
                it_calls[name] += int(np.count_nonzero(sel))
                if name in STEP_SPANS:
                    it_steps += float(d["dur"][sel].sum())
            outer = d["outer"]
            np.add.at(covered, d["layer"][outer], d["dur"][outer])
            cli_outer = outer & (d["layer"] == LAYERS.index("cli"))
            it_cli += float(d["self"][cli_outer].sum())
            for k, v in d["meta"]["mults"].items():
                mults[k] += v
            for k, v in d["meta"]["rows"].items():
                rows[k] += v
            for k, v in d["meta"]["extra"].items():
                if k in PEAK_KEYS:
                    extra[k] = max(extra[k], v)
                else:
                    extra[k] += v
        for name, c in it_calls.items():
            calls[name].append(c)
        for layer in SHARE_LAYERS:
            shares[layer].append(covered[LAYERS.index(layer)] / wall)
        cli_self.append(it_cli)
        step_shares.append(it_steps / wall)

    def pct(name, q, scale=1e3, pool=dur):
        v = pool.get(name)
        return float(np.percentile(v, q)) * scale if v else 0.0

    def n_calls(name):
        v = calls.get(name)
        return float(np.median(v)) if v else 0.0

    def total(name):
        return float(sum(dur.get(name, ())))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "fba.fba_app.ms_p50": pct("fba.fba_app", 50),
        "fba.fba_app.ms_p90": pct("fba.fba_app", 90),
        "fba.fba_app.calls": n_calls("fba.fba_app"),
        "fba.fba_ub.ms_per_block":
            1e3 * ratio(total("fba.fba_ub"), extra["fba.fba_ub.blocks"]),
        "fba.mults_per_app": ratio(mults["fba.fba_app"], rows["fba.fba_app"]),
        "fba.mults_per_app_closed": extra["fba.closed_form"],
        "fba.mmults_per_s":
            1e-6 * ratio(mults["fba.fba_app"], total("fba.fba_app")),
        "fba.build_aux_channel.ms": pct("fba.build_aux_channel", 50),
        "fba.mean_contexts.us_p50": pct("fba.mean_contexts", 50, 1e6),
        "fba.mean_contexts.calls": n_calls("fba.mean_contexts"),
        "gibbs.gibbs_app.ms_p50": pct("gibbs.gibbs_app", 50),
        "gibbs.gibbs_app.calls": n_calls("gibbs.gibbs_app"),
        "gibbs.bit_updates_per_s":
            ratio(extra["gibbs.bit_updates"], total("gibbs.gibbs_app")),
        "gibbs.mults_per_app":
            ratio(mults["gibbs.gibbs_app"], rows["gibbs.gibbs_app"]),
        "gibbs.mults_per_app_closed": extra["gibbs.closed_form"],
        "gibbs.uniform_bytes": extra["gibbs.uniform_bytes"],
        "training.make_batch.ms_p50": pct("training.make_batch", 50),
        "channel.simulate_batch.ms_p50": pct("channel.simulate_batch", 50),
        "rnn.gather_inputs.ms_p50": pct("rnn.gather_inputs", 50),
        "rnn.forward.ms_p50": pct("rnn.forward", 50),
        "training.backward.self_ms_p50":
            pct("training.backward", 50, pool=selfs),
        "training.adam_step.ms_p50": pct("training.adam_step", 50),
        "training.iters_per_s":
            ratio(len(dur.get("training.adam_step", ())),
                  total("training.train_stage")),
        "rnn.rnn_app.ms_p50": pct("rnn.rnn_app", 50),
        "rnn.rnn_app.calls": n_calls("rnn.rnn_app"),
        "rnn.mults_per_step":
            ratio(mults["rnn.rnn_app"], extra["rnn.rnn_app.steps"]),
        "rnn.mults_per_step_closed": extra["rnn.closed_form"],
        "rnn.save_model.ms": pct("rnn.save_model", 50),
        "rnn.load_model.ms": pct("rnn.load_model", 50),
        "rnn.checkpoint_bytes": extra["rnn.checkpoint_bytes"],
        "channel.random_block.ms_p50": pct("channel.random_block", 50),
        "channel.random_block.calls": n_calls("channel.random_block"),
        "sic.stage_view.us_p50": pct("sic.stage_view", 50, 1e6),
        "sic.stage_view.calls": n_calls("sic.stage_view"),
        "rates.estimate_sic.self_ms": pct("rates.estimate_sic", 50, pool=selfs),
        "config.load_config.ms": pct("config.load_config", 50),
        "cli.self_ms": 1e3 * float(np.median(cli_self)) if cli_self else 0.0,
        **{f"{layer}.share": float(np.median(shares[layer]))
           if shares[layer] else 0.0 for layer in SHARE_LAYERS},
        "training.steps_share":
            float(np.median(step_shares)) if step_shares else 0.0,
        "trace_overhead_frac": overhead_frac,
    }
    return {k: float(v) for k, v in m.items()}
