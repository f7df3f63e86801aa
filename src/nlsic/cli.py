"""Experiment runner.

Subcommands: simulate | train | evaluate | sweep | report.  Every run
resolves its configuration, hashes it, and works under
<output_dir>/<hash>/ so artifacts are reproducible per seed and config:
blocks/ holds raw block dumps, models/ the per-(stage, power) checkpoints
and training logs, rates.csv and complexity.csv the evaluation results, and
manifest.json the bookkeeping needed to re-run bit-identically (timing
and worker counts live only there, never in the CSVs).  A command writes
one manifest for all of its work: sweep's lists what train and evaluate
made, with the wall time of both.  train's and sweep's add a `training`
list, one entry per (stage, power): iterations, seconds, iterations/s,
final and best loss in bits, and clamp events.

train runs its per-stage chains and evaluate its sweep points in parallel,
one process per usable CPU (see nlsic.parallel); the Gibbs sampler splits
its chains over the CPUs a sweep point has to itself.  Every unit draws from
its own seed, so the artifacts do not depend on the number of processes.

A command imports only the modules its work runs: the detectors, the
trainer and the rate estimates are imported by the step that uses them, in
the main process before it forks, so the workers inherit them compiled.  An
fba evaluate never loads the Gibbs or RNN modules, and train never loads
the trellis or the rate estimates.

Exit codes: 0 ok, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import channel as ch
from . import config as cfgmod
from . import parallel, sic
from .config import ConfigError


def _code_hash() -> str:
    pkg = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _environment() -> dict:
    """What a run's numbers and start-up time depend on besides the code;
    an interpreter that writes no bytecode compiles the package again in
    every process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without build information
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "dont_write_bytecode": sys.dont_write_bytecode,
    }


def _run_path(cfg) -> Path:
    """The run directory of a configuration: <output_dir>/<config hash>."""
    return Path(cfg.output_dir) / cfgmod.config_hash(cfg)


def _run(cfg, *steps) -> int:
    """Make the run directory, write its config.json, run the steps in it
    and write one manifest for them all: their artifacts, the wall time of
    the whole run, the most processes any step ran at once and the entries
    the steps add.  Each step(cfg, run_dir) returns (artifacts, workers,
    manifest entries).  When a step raises, a run directory this call made
    is removed before the error goes on."""
    t0 = time.perf_counter()
    run_dir = _run_path(cfg)
    made = not run_dir.exists()
    run_dir.mkdir(parents=True, exist_ok=True)
    artifacts, workers, entries = [], 1, {}
    try:
        with open(run_dir / "config.json", "w") as fh:
            json.dump(cfgmod.resolved_dict(cfg), fh, indent=2, sort_keys=True)
            fh.write("\n")
        for step in steps:
            paths, step_workers, step_entries = step(cfg, run_dir)
            artifacts += paths
            workers = max(workers, step_workers)
            entries.update(step_entries)
    except BaseException:
        if made:
            shutil.rmtree(run_dir, ignore_errors=True)
        raise
    manifest = {
        "config_hash": cfgmod.config_hash(cfg),
        "code_hash": _code_hash(),
        "seed": cfg.seed,
        "wall_seconds": time.perf_counter() - t0,
        "workers": workers,
        "usable_cpus": parallel.usable_cpus(),
        "artifacts": sorted(str(p.relative_to(run_dir)) for p in artifacts),
        "environment": _environment(),
        **entries,
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _ptx_tag(p_tx_db: float) -> str:
    # dot-free so Path.with_suffix cannot clip it
    return f"ptx{cfgmod.millidb(p_tx_db):+08d}mdb"


def _model_stem(run_dir: Path, s: int, p_tx_db: float) -> Path:
    return run_dir / "models" / f"stage{s}_{_ptx_tag(p_tx_db)}"


def _train_seed(cfg, sweep_idx: int, s: int) -> int:
    ss = np.random.SeedSequence([cfg.seed, 2, sweep_idx, s])
    return int(ss.generate_state(1)[0])


# ---------------------------------------------------------------------------
# simulate


def _simulate(cfg, run_dir: Path):
    block_dir = run_dir / "blocks"
    block_dir.mkdir(exist_ok=True)
    base = cfgmod.build_channel(cfg)
    config_hash = cfgmod.config_hash(cfg)
    channel = cfgmod.resolved_dict(cfg)["channel"]
    artifacts = []
    for sweep_idx, p_tx_db in enumerate(cfg.sweep_p_tx_db):
        chan = base.with_transmit_power_db(p_tx_db)
        for b in range(cfg.eval_n_blk):
            seed = [cfg.seed, 1, sweep_idx, b]
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            blk = ch.random_block(chan, cfg.eval_n, rng)
            x, y = blk.x[0], blk.y[0]
            stem = block_dir / f"{_ptx_tag(p_tx_db)}_block{b:05d}"
            with open(stem.with_suffix(".bin"), "wb") as fh:
                fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(y, dtype="<f8").tobytes())
            sidecar = {
                "n": len(x),
                "n_y": len(y),
                "seed": seed,
                "p_tx_db_target": p_tx_db,
                "p_tx_measured": float(blk.p_tx[0]),
                "config_hash": config_hash,
                "channel": channel,
            }
            with open(stem.with_suffix(".json"), "w") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")
            artifacts += [stem.with_suffix(".bin"), stem.with_suffix(".json")]
    print(f"wrote {len(artifacts) // 2} blocks under {block_dir}")
    return artifacts, 1, {}


def cmd_simulate(cfg) -> int:
    return _run(cfg, _simulate)


# ---------------------------------------------------------------------------
# train


def _train_chain(cfg, base, run_dir: Path, sweep, s: int) -> list:
    """Train stage s at every sweep point in ascending order, each point
    warm-started from the network this chain trained at the previous one.
    Returns one (message, artifacts, manifest training entry) record per
    point and prints nothing, so chains of different stages can run in
    different processes."""
    from . import rnn, training

    plan = sic.SicPlan(cfg.stages, cfg.eval_n)
    shape = cfgmod.rnn_shape(cfg, s, base.config.alphabet.size)
    records, model = [], None
    for sweep_idx, p_tx_db in enumerate(sweep):
        chan = base.with_transmit_power_db(p_tx_db)
        warm = model if cfg.rnn.warm_start else None
        tcfg = training.TrainConfig(
            learn_rate=cfg.rnn.learn_rate, n_iter=cfg.rnn.n_iter,
            n_batch=cfg.rnn.n_batch, t_rnn=cfg.rnn.t_rnn,
            seed=_train_seed(cfg, sweep_idx, s))
        t0 = time.perf_counter()
        model, log = training.train_stage(chan, plan, s, shape, tcfg,
                                          warm_model=warm)
        seconds = time.perf_counter() - t0
        model.provenance.update({
            "p_tx_db": p_tx_db,
            "warm_start_from": None if warm is None else sweep[sweep_idx - 1],
        })
        stem = _model_stem(run_dir, s, p_tx_db)
        rnn.save_model(model, stem)
        log_path = run_dir / "models" / \
            f"trainlog_stage{s}_{_ptx_tag(p_tx_db)}.csv"
        log.to_csv(log_path)
        message = (f"trained stage {s} at {p_tx_db:+.2f} dB: "
                   f"final loss {log.loss_bits[-1]:.4f} bits"
                   if log.loss_bits else
                   f"initialized stage {s} at {p_tx_db:+.2f} dB (0 iterations)")
        iterations = len(log.loss_bits)
        entry = {
            "stage": s, "p_tx_db": p_tx_db, "iterations": iterations,
            "seconds": seconds,
            "iterations_per_s": iterations / seconds if seconds > 0 else None,
            "final_loss_bits": log.loss_bits[-1] if iterations else None,
            "best_loss_bits": min(log.loss_bits) if iterations else None,
            "clamp_events": log.clamp_events,
        }
        records.append((message, [
            stem.with_suffix(".bin"), stem.with_suffix(".json"), log_path],
            entry))
    return records


def _train(cfg, run_dir: Path):
    # imported before the chains fork, so no worker compiles its own copy
    from . import rnn, training  # noqa: F401

    (run_dir / "models").mkdir(exist_ok=True)
    base = cfgmod.build_channel(cfg)
    sweep = sorted(cfg.sweep_p_tx_db)
    # stage chains are independent: each trains on the true symbols of the
    # earlier stages (the ideal-code assumption) and warm-starts only from
    # its own networks
    stages = range(1, cfg.stages + 1)
    chains, workers = parallel.parallel_map(
        lambda s: _train_chain(cfg, base, run_dir, sweep, s), stages)
    artifacts, summary = [], []
    for point in zip(*chains):
        for message, paths, entry in point:
            print(message)
            artifacts += paths
            summary.append(entry)
    # timing stays out of the trainlogs: the manifest is the run's only
    # nondeterministic file
    return artifacts, workers, {"training": summary}


def cmd_train(cfg) -> int:
    if cfg.detector_kind != "rnn":
        raise ConfigError("train: detector.kind must be 'rnn'")
    return _run(cfg, _train)


# ---------------------------------------------------------------------------
# evaluate


def _detector_for(cfg, chan, run_dir, p_tx_db):
    """The sweep point's detector apps(ys, views, rng), the trellis it runs
    on (None for the others), and its multiplications per APP by stage."""
    from . import rates

    stages = range(1, cfg.stages + 1)
    if cfg.detector_kind == "fba":
        from . import fba

        aux = fba.build_aux_channel(chan, cfg.fba.memory, future=cfg.fba.future)
        count = fba.count_fba_multiplications(aux, cfg.eval_n, cfg.stages)
        return (lambda ys, views, rng: fba.fba_point_apps(aux, ys, views),
                aux, dict.fromkeys(stages, count))
    if cfg.detector_kind == "gibbs":
        from . import fba, gibbs

        aux = fba.build_aux_channel(chan, cfg.gibbs.memory, build_table=False)
        count = gibbs.count_gs_multiplications(aux, cfg.gibbs, cfg.eval_n)
        return (rates.stage_by_stage(lambda y, view, rng:
                                     gibbs.gibbs_apps(aux, y, view, cfg.gibbs,
                                                      rng)),
                None, dict.fromkeys(stages, count))
    if cfg.detector_kind == "rnn":
        from . import rnn

        models, counts = {}, {}
        for s in stages:
            stem = _model_stem(run_dir, s, p_tx_db)
            if not stem.with_suffix(".bin").exists():
                raise ConfigError(f"evaluate: detector.kind rnn needs "
                                  f"checkpoint {stem}.bin (run 'train' first)")
            try:
                models[s] = rnn.load_model(stem)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"evaluate: bad checkpoint {stem}: {exc}") \
                    from exc
            # per input step, the convention of the published profiles
            counts[s] = rnn.count_rnn_multiplications(models[s].shape)
        return (rates.stage_by_stage(lambda y, view, rng:
                                     rnn.rnn_apps(models[view.s], y, view)),
                None, counts)
    return (rates.uniform_apps(chan.config.alphabet.size),
            None, dict.fromkeys(stages, 0))


def _evaluate_point(cfg, base, run_dir, sweep_idx, p_tx_db):
    from . import rates

    chan = base.with_transmit_power_db(p_tx_db)
    apps, ub_aux, counts = _detector_for(cfg, chan, run_dir, p_tx_db)
    # the bound runs on the detector's trellis unless it has its own memory
    if cfg.ub_memory is not None:
        from . import fba

        ub_aux = fba.build_aux_channel(chan, cfg.ub_memory)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3, sweep_idx]))
    plan = sic.SicPlan(cfg.stages, cfg.eval_n)
    report = rates.estimate_sic(apps, chan, plan, cfg.eval_n_blk, rng,
                                ub_aux=ub_aux)
    return report, counts


def _format_rate_rows(cfg, report, counts, p_tx_db, config_hash):
    rows = []
    for sr in report.stage_rates:
        ub = f"{report.ub:.6f}" if report.ub is not None else ""
        ub_se = f"{report.ub_stderr:.6f}" if report.ub is not None else ""
        rows.append(
            f"{cfg.detector_kind},{p_tx_db:.3f},{sr.s},{sr.rate:.6f},"
            f"{sr.stderr:.6f},{sr.clamp_fraction:.6f},{int(sr.flagged)},"
            f"{report.i_sic:.6f},{report.i_sic_stderr:.6f},{ub},{ub_se},"
            f"{counts[sr.s]:.1f},{cfg.eval_n_blk},{cfg.eval_n},"
            f"{config_hash}")
    return rows


RATES_HEADER = ("detector,p_tx_db,stage,rate,stderr,clamp_fraction,flagged,"
                "i_sic,i_sic_stderr,ub,ub_stderr,mults_per_app,n_blk,n,"
                "config_hash")


def _evaluate(cfg, run_dir: Path):
    # the modules the sweep points run are imported before they fork, so no
    # worker compiles its own copy: the trellis only for a detector or a
    # bound that runs on it
    from . import rates  # noqa: F401

    if cfg.detector_kind in ("fba", "gibbs", "rnn"):
        __import__(f"{__package__}.{cfg.detector_kind}")
    if cfg.ub_memory is not None:
        from . import fba  # noqa: F401
    base = cfgmod.build_channel(cfg)
    points = list(enumerate(cfg.sweep_p_tx_db))
    results, workers = parallel.parallel_map(
        lambda point: _evaluate_point(cfg, base, run_dir, *point), points)

    config_hash = cfgmod.config_hash(cfg)
    rate_rows, summary = [], []
    complexity_rows = set()
    for (sweep_idx, p_tx_db), (report, counts) in zip(points, results):
        rate_rows += _format_rate_rows(cfg, report, counts, p_tx_db,
                                       config_hash)
        for s, cnt in counts.items():
            complexity_rows.add((s, cnt))
        summary.append({
            "p_tx_db": p_tx_db,
            "detector": cfg.detector_kind,
            "i_sdd": report.stage_rates[0].rate,
            "i_sic": report.i_sic,
            "i_sic_stderr": report.i_sic_stderr,
            "ub": report.ub,
        })

    rates_path = run_dir / "rates.csv"
    with open(rates_path, "w", newline="") as fh:
        fh.write(RATES_HEADER + "\n")
        fh.write("\n".join(rate_rows) + "\n")
    complexity_path = run_dir / "complexity.csv"
    with open(complexity_path, "w", newline="") as fh:
        fh.write("detector,stage,mults_per_app\n")
        for s, cnt in sorted(complexity_rows):
            fh.write(f"{cfg.detector_kind},{s},{cnt:.1f}\n")
    summary_path = run_dir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {rates_path}")
    return [rates_path, complexity_path, summary_path], workers, {}


def cmd_evaluate(cfg) -> int:
    return _run(cfg, _evaluate)


def cmd_sweep(cfg) -> int:
    if cfg.detector_kind != "rnn":
        return cmd_evaluate(cfg)
    return _run(cfg, _train, _evaluate)


def cmd_report(cfg) -> int:
    rates_path = _run_path(cfg) / "rates.csv"
    if not rates_path.exists():
        raise ConfigError(f"report: {rates_path} not found (run 'evaluate')")
    lines = rates_path.read_text().splitlines()
    header = lines[0].split(",")
    idx = {name: i for i, name in enumerate(header)}
    print(f"{'P_tx[dB]':>9} {'stage':>5} {'rate':>9} {'stderr':>9} "
          f"{'I_SIC':>9} {'UB':>9}")
    for line in lines[1:]:
        f = line.split(",")
        ub = f"{float(f[idx['ub']]):.4f}" if f[idx['ub']] else "-"
        print(f"{float(f[idx['p_tx_db']]):>9.2f} {f[idx['stage']]:>5} "
              f"{float(f[idx['rate']]):>9.4f} {float(f[idx['stderr']]):>9.4f} "
              f"{float(f[idx['i_sic']]):>9.4f} {ub:>9}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlsic",
        description="Simulation, equalization and rate estimation for "
                    "bandlimited channels with a memoryless nonlinearity.")
    parser.add_argument("command",
                        choices=["simulate", "train", "evaluate", "sweep",
                                 "report"])
    parser.add_argument("-c", "--config", required=True,
                        help="YAML experiment configuration")
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.load_config(args.config)
    except FileNotFoundError:
        print(f"config error: no such file {args.config}", file=sys.stderr)
        return 2
    except (ConfigError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    handler = {"simulate": cmd_simulate, "train": cmd_train,
               "evaluate": cmd_evaluate, "sweep": cmd_sweep,
               "report": cmd_report}[args.command]
    try:
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric failure: {args.command}: out of memory: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
