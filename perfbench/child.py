"""Child processes of the benchmark.

    python3 perfbench/child.py setup CONFIG
        Import nlsic, load the config, build the channel and, where the
        workload uses one, the auxiliary channel, then exit.  The parent times
        the whole process: that is the set-up a user pays on every command.

    python3 perfbench/child.py calibrate
        Run a fixed piece of work that uses no nlsic code: interpreter start,
        numpy import, small-array numpy arithmetic and a pure-Python loop,
        the mix the nlsic commands are made of.  The benchmark divides its
        timings by the CPU time of this process, to take out the speed of
        the host at the time of each command.

    python3 perfbench/child.py env
        Print the numpy, scipy and BLAS versions as JSON.

    python3 perfbench/child.py trace SPANS_OUT RUN_ID NLSIC_ARGS...
        Run ``nlsic NLSIC_ARGS...`` with every layer wrapped by the tracer and
        write the spans to SPANS_OUT.  Exits with the command's status.
"""

from __future__ import annotations

import json
import sys


def setup(config_path: str) -> int:
    import nlsic
    from nlsic import config, fba

    cfg = config.load_config(config_path)
    chan = config.build_channel(cfg).with_transmit_power_db(
        cfg.sweep_p_tx_db[0])
    if cfg.detector_kind == "fba":
        fba.build_aux_channel(chan, cfg.fba.memory, future=cfg.fba.future)
    elif cfg.detector_kind == "gibbs":
        fba.build_aux_channel(chan, cfg.gibbs.memory, build_table=False)
    if cfg.ub_memory is not None:
        fba.build_aux_channel(chan, cfg.ub_memory)
    print(nlsic.__file__)
    return 0


def calibrate() -> int:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    x = rng.standard_normal(64)
    acc = 0.0
    for _ in range(3000):
        x = np.tanh(a @ x) + 0.5 * np.exp(-x * x)
        acc += float(np.logaddexp.reduce(x))
    for i in range(300_000):
        acc += (i % 7) * 1e-9
    print(acc)
    return 0


def env() -> int:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    print(json.dumps({"numpy": np.__version__, "scipy": scipy.__version__,
                      "blas": blas}))
    return 0


def trace(spans_out: str, run_id: str, argv: list) -> int:
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        from nlsic import cli
        status = cli.main(argv)
    tracer.dump(spans_out, run_id)
    return status


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "calibrate" and len(sys.argv) == 2:
        sys.exit(calibrate())
    if mode == "env" and len(sys.argv) == 2:
        sys.exit(env())
    if mode == "setup" and len(sys.argv) == 3:
        sys.exit(setup(sys.argv[2]))
    if mode == "trace" and len(sys.argv) > 4:
        sys.exit(trace(sys.argv[2], sys.argv[3], sys.argv[4:]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
