"""Span tracing of the nlsic layers from outside the package.

A :class:`Tracer` replaces the public functions of each nlsic module (plus
``AuxChannel.mean_contexts`` and ``Adam.step``) with timing wrappers.  The
replacement is made in every ``nlsic`` module namespace that holds the
function, so names bound by ``from ... import`` are caught too.  Each call
records one span: name, start, end (``perf_counter_ns``) and the enclosing
span.  Spans stay in typed arrays in memory and are written out once by
:meth:`Tracer.dump`.

Wrapped functions that take a ``counter=`` argument and are called without
one get a per-function ``MultCounter``, so the traced run reports the
multiplications actually executed.  A few hooks record what a span worked on
(APP rows, input steps, bit updates, checkpoint bytes, closed-form counts).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("channel", "sic", "fba", "gibbs", "rnn", "training", "rates",
          "config", "cli")

# (module, class, method) -> span name
METHODS = {("fba", "AuxChannel", "mean_contexts"): "fba.mean_contexts",
           ("training", "Adam", "step"): "training.adam_step"}


def _public_functions(mod):
    return [name for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_")]


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# -- hooks: (tracer, original function, args, kwargs, result) -> None --------

def _hook_gibbs_app(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    view, cfg = a["view"], a["cfg"]
    unknown = view.plan.n - len(view.known_idx)
    bits = int(a["aux"].m_symbols).bit_length() - 1
    updates = cfg.n_par * cfg.n_iter * unknown * bits
    tr.extra["gibbs.bit_updates"] += updates
    # gibbs_app pre-draws one float64 uniform per bit update
    tr.extra["gibbs.uniform_bytes"] = max(tr.extra["gibbs.uniform_bytes"],
                                          8 * updates)


def _hook_rnn_app(tr, fn, args, kwargs, result):
    view = _bound(fn, args, kwargs)["view"]
    tr.extra["rnn.rnn_app.steps"] += view.plan.per_stage * view.phases


def _hook_fba_ub(tr, fn, args, kwargs, result):
    tr.extra["fba.fba_ub.blocks"] += len(_bound(fn, args, kwargs)["blocks"])


def _hook_save_model(tr, fn, args, kwargs, result):
    stem = Path(_bound(fn, args, kwargs)["stem"])
    size = sum(stem.with_suffix(s).stat().st_size for s in (".bin", ".json"))
    tr.extra["rnn.checkpoint_bytes"] = max(tr.extra["rnn.checkpoint_bytes"],
                                           size)


def _closed_form(key):
    def hook(tr, fn, args, kwargs, result):
        tr.extra[key] = float(result)
    return hook


# extra tallies that hold a peak or a value rather than a running sum
PEAK_KEYS = {"gibbs.uniform_bytes", "rnn.checkpoint_bytes", "fba.closed_form",
             "gibbs.closed_form", "rnn.closed_form"}

HOOKS = {
    "gibbs.gibbs_app": _hook_gibbs_app,
    "rnn.rnn_app": _hook_rnn_app,
    "fba.fba_ub": _hook_fba_ub,
    "rnn.save_model": _hook_save_model,
    "fba.count_fba_multiplications": _closed_form("fba.closed_form"),
    "gibbs.count_gs_multiplications": _closed_form("gibbs.closed_form"),
    "rnn.count_rnn_multiplications": _closed_form("rnn.closed_form"),
}


class Tracer:
    """In-memory span recorder that patches the nlsic layers while
    installed.  Not thread-safe: nlsic runs its layers on one thread unless
    NLSIC_WORKERS is set, which the benchmark leaves unset."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.counters: dict = {}
        self.extra = defaultdict(float)
        self.rows = defaultdict(int)
        self._patched: list = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer module, in every nlsic
        namespace that binds it, and the traced methods."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from nlsic.apps import MultCounter

        self._counter_type = MultCounter
        mods = {layer: importlib.import_module(f"nlsic.{layer}")
                for layer in LAYERS}
        wrappers = {}   # id of original -> wrapper; originals stay alive
        for layer, mod in mods.items():
            for fname in _public_functions(mod):
                orig = getattr(mod, fname)
                wrappers[id(orig)] = self._wrap(f"{layer}.{fname}", orig)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "nlsic" or n.startswith("nlsic.")) and m]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        for (layer, cls_name, meth), span in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(span, orig))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        params = list(inspect.signature(fn).parameters)
        cpos = params.index("counter") if "counter" in params else None
        hook = HOOKS.get(span)
        clock = time.perf_counter_ns
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cpos is not None:
                args, kwargs = self._inject_counter(span, cpos, args, kwargs)
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            if hasattr(result, "positions") and hasattr(result, "n_rows"):
                self.rows[span] += result.n_rows
            return result

        return wrapper

    def _inject_counter(self, span, cpos, args, kwargs):
        if len(args) > cpos:
            if args[cpos] is not None:
                return args, kwargs
            args = args[:cpos] + (self._counter(span),) + args[cpos + 1:]
        elif kwargs.get("counter") is None:
            kwargs = dict(kwargs, counter=self._counter(span))
        return args, kwargs

    def _counter(self, span):
        ctr = self.counters.get(span)
        if ctr is None:
            ctr = self.counters[span] = self._counter_type()
        return ctr

    # -- output ----------------------------------------------------------------

    def dump(self, path, run_id: str) -> None:
        """Write the spans and tallies of this process to one .npz file."""
        import numpy as np

        meta = {
            "run_id": run_id,
            "names": self.names,
            "mults": {k: c.total for k, c in self.counters.items()},
            "rows": dict(self.rows),
            "extra": dict(self.extra),
        }
        with open(path, "wb") as fh:
            np.savez(fh, name_id=np.frombuffer(self.name_id, dtype=np.int32),
                     parent=np.frombuffer(self.parent, dtype=np.int64),
                     start=np.frombuffer(self.start, dtype=np.int64),
                     end=np.frombuffer(self.end, dtype=np.int64),
                     meta=np.array(json.dumps(meta, sort_keys=True)))
