"""Experiment runner: artifact layout, golden CSV schema, byte determinism,
warm-start chaining, and exit codes."""

import contextlib
import copy
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsic import channel as ch
from nlsic import apps, cli, fba, gibbs, parallel, rates, sic, training
from nlsic import config as cfgmod


def toy_yaml(tmp_path, detector="fba", stages=2, n_blk=6, n=24,
             sweep=(2.0, 6.0), seed=99, extra=""):
    text = f"""
channel:
  alphabet: 4-ASK
  n_os: 2
  n_sim: 2
  nonlinearity: square-law
  k_g: 7
  noise: {{kind: real, variance: 1.0}}
  precoding: differential-phase
sic: {{stages: {stages}}}
detector:
  kind: {detector}
  fba: {{memory: 3}}
  gibbs: {{memory: 3, n_iter: 30, n_par: 2, burn_in: 5}}
  rnn:
    l_y: 8
    l_ic: 4
    hidden: [16]
    t_rnn: 8
    learn_rate: 2.0e-3
    n_batch: 16
    n_iter: 40
sweep: {{p_tx_db: {list(sweep)}}}
eval: {{n_blk: {n_blk}, n: {n}{extra}}}
seed: {seed}
output_dir: {tmp_path / 'out'}
"""
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    return path


def fiber_yaml(tmp_path, detector, extra=""):
    """toy_yaml behind 30 km of fiber at 35 GBd: the pulse is materially
    complex, and the square law makes the observations real."""
    path = toy_yaml(tmp_path, detector=detector, n_blk=2, sweep=(4.0,),
                    extra=extra)
    path.write_text(path.read_text().replace("k_g: 7", (
        "k_g: 7\n  symbol_rate: 3.5e10\n"
        "  fiber: {length_km: 30.0, beta2_s2_per_km: -2.168e-23}")))
    return path


def run_dir_for(config_path):
    cfg = cfgmod.load_config(config_path)
    return Path(cfg.output_dir) / cfgmod.config_hash(cfg)


def sidecar_rng(stem):
    """A generator seeded as simulate seeded the dumped block at stem."""
    seed = json.loads(stem.with_suffix(".json").read_text())["seed"]
    return np.random.default_rng(np.random.SeedSequence(seed))


def read_block(stem) -> ch.Blocks:
    """The block simulate dumped at stem, as a batch of one."""
    meta = json.loads(stem.with_suffix(".json").read_text())
    raw = np.frombuffer(stem.with_suffix(".bin").read_bytes(), dtype="<f8")
    assert len(raw) == meta["n"] + meta["n_y"]
    return ch.Blocks(x=raw[None, :meta["n"]], y=raw[None, meta["n"]:],
                     p_tx=np.array([meta["p_tx_measured"]]))


class TestSimulate:
    def test_dumps_are_byte_identical_across_runs(self, tmp_path):
        path = toy_yaml(tmp_path, sweep=(3.0,), n_blk=3)
        assert cli.main(["simulate", "-c", str(path)]) == 0
        run_dir = run_dir_for(path)
        blobs = {p.name: p.read_bytes()
                 for p in sorted((run_dir / "blocks").glob("*.bin"))}
        assert len(blobs) == 3
        assert cli.main(["simulate", "-c", str(path)]) == 0
        for p in sorted((run_dir / "blocks").glob("*.bin")):
            assert p.read_bytes() == blobs[p.name]

    def test_block_roundtrip_matches_direct_simulation(self, tmp_path):
        path = toy_yaml(tmp_path, sweep=(3.0,), n_blk=2)
        cli.main(["simulate", "-c", str(path)])
        run_dir = run_dir_for(path)
        stem = sorted((run_dir / "blocks").glob("*.bin"))[0].with_suffix("")
        blk = read_block(stem)
        cfg = cfgmod.load_config(path)
        chan = cfgmod.build_channel(cfg).with_transmit_power_db(3.0)
        direct = ch.random_block(chan, cfg.eval_n, sidecar_rng(stem))
        assert np.array_equal(blk.x, direct.x)
        assert np.array_equal(blk.y, direct.y)
        assert np.array_equal(blk.p_tx, direct.p_tx)

    def test_points_sharing_a_file_tag_rejected(self, tmp_path, capsys):
        path = toy_yaml(tmp_path, sweep=(3.0, 3.0004), n_blk=1)
        assert cli.main(["simulate", "-c", str(path)]) == 2
        assert "sweep.p_tx_db" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_points_one_millidb_apart_get_their_own_files(self, tmp_path):
        path = toy_yaml(tmp_path, sweep=(3.0, 3.001), n_blk=1)
        assert cli.main(["simulate", "-c", str(path)]) == 0
        names = sorted(p.name for p in (run_dir_for(path) / "blocks").glob("*.bin"))
        assert names == ["ptx+0003000mdb_block00000.bin",
                         "ptx+0003001mdb_block00000.bin"]


class TestDispersiveFiber:
    def test_pulse_is_materially_complex(self, tmp_path):
        cfg = cfgmod.load_config(fiber_yaml(tmp_path, "fba"))
        assert np.max(np.abs(cfgmod.build_channel(cfg).g.taps.imag)) > 0.1

    @pytest.mark.parametrize("detector,command,extra", [
        ("fba", "evaluate", ""), ("gibbs", "evaluate", ""),
        ("uniform", "evaluate", ", ub_memory: 1"), ("rnn", "sweep", "")])
    def test_every_detector_runs(self, tmp_path, detector, command, extra):
        """Each detector, and the fba detector's upper bound, give finite
        rates on the fiber."""
        path = fiber_yaml(tmp_path, detector, extra)
        assert cli.main([command, "-c", str(path)]) == 0
        lines = (run_dir_for(path) / "rates.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 3
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["detector"] == detector
            keys = ("rate", "i_sic") + (("ub",) if extra or detector == "fba" else ())
            for key in keys:
                assert np.isfinite(float(row[key])), key

    def test_simulate_roundtrip(self, tmp_path):
        path = fiber_yaml(tmp_path, "fba")
        assert cli.main(["simulate", "-c", str(path)]) == 0
        cfg = cfgmod.load_config(path)
        chan = cfgmod.build_channel(cfg).with_transmit_power_db(4.0)
        stems = sorted((run_dir_for(path) / "blocks").glob("*.bin"))
        assert len(stems) == 2
        for stem in stems:
            blk = read_block(stem.with_suffix(""))
            direct = ch.random_block(chan, cfg.eval_n,
                                     sidecar_rng(stem.with_suffix("")))
            assert direct.y.dtype == np.float64
            assert np.array_equal(blk.x, direct.x)
            assert np.array_equal(blk.y, direct.y)


class TestEvaluate:
    def test_golden_header_and_formatting(self, tmp_path):
        path = toy_yaml(tmp_path, n_blk=4, sweep=(4.0,))
        assert cli.main(["evaluate", "-c", str(path)]) == 0
        lines = (run_dir_for(path) / "rates.csv").read_text().splitlines()
        assert lines[0] == ("detector,p_tx_db,stage,rate,stderr,clamp_fraction,"
                            "flagged,i_sic,i_sic_stderr,ub,ub_stderr,"
                            "mults_per_app,n_blk,n,config_hash")
        fields = lines[1].split(",")
        assert fields[0] == "fba"
        assert fields[1] == "4.000"
        # fixed-point formatting with a dot separator
        assert "." in fields[3] and len(fields[3].split(".")[1]) == 6

    def test_uniform_detector_zero_rates(self, tmp_path):
        path = toy_yaml(tmp_path, detector="uniform", n_blk=3, sweep=(4.0,))
        cli.main(["evaluate", "-c", str(path)])
        lines = (run_dir_for(path) / "rates.csv").read_text().splitlines()
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(0.0, abs=1e-9)

    def test_matches_rates_module_directly(self, tmp_path):
        """Shared oracle: the CSV numbers equal a direct estimator call with
        the same seed derivation."""
        path = toy_yaml(tmp_path, n_blk=5, sweep=(5.0,), stages=2)
        cli.main(["evaluate", "-c", str(path)])
        cfg = cfgmod.load_config(path)
        chan = cfgmod.build_channel(cfg).with_transmit_power_db(5.0)
        aux = fba.build_aux_channel(chan, 3)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3, 0]))
        report = rates.estimate_sic(
            lambda ys, views, rng: fba.fba_point_apps(aux, ys, views), chan,
            sic.SicPlan(2, cfg.eval_n), 5, rng, ub_aux=aux)
        lines = (run_dir_for(path) / "rates.csv").read_text().splitlines()
        got = [float(line.split(",")[3]) for line in lines[1:]]
        want = [round(sr.rate, 6) for sr in report.stage_rates]
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("detector", ["fba", "gibbs"])
    def test_rates_independent_of_slice_bytes(self, tmp_path, monkeypatch,
                                              detector):
        """The trellis runs a sweep point's stages in one pass, cut into
        slices that may cross stage boundaries, and the sampler sweeps its
        blocks slice by slice: rates.csv does not depend on the slice
        size, down to one block per slice."""
        path = toy_yaml(tmp_path, detector=detector, stages=2, n_blk=3,
                        sweep=(4.0,))
        runs = []
        for slice_bytes in (apps.SLICE_BYTES, 1):
            monkeypatch.setattr(apps, "SLICE_BYTES", slice_bytes)
            assert cli.main(["evaluate", "-c", str(path)]) == 0
            runs.append((run_dir_for(path) / "rates.csv").read_bytes())
        assert runs[0] == runs[1]

    def test_byte_identical_across_runs(self, tmp_path):
        path = toy_yaml(tmp_path, n_blk=4)
        cli.main(["evaluate", "-c", str(path)])
        run_dir = run_dir_for(path)
        first = {name: (run_dir / name).read_bytes()
                 for name in ("rates.csv", "complexity.csv", "summary.json")}
        cli.main(["evaluate", "-c", str(path)])
        for name, blob in first.items():
            assert (run_dir / name).read_bytes() == blob

    def test_missing_checkpoint_is_config_error(self, tmp_path, capsys):
        """Refused before the run directory is made, naming the first
        checkpoint it lacks."""
        path = toy_yaml(tmp_path, detector="rnn", sweep=(4.0,))
        assert cli.main(["evaluate", "-c", str(path)]) == 2
        stem = cli._model_stem(run_dir_for(path), 1, 4.0)
        assert f"{stem}.bin" in capsys.readouterr().err
        assert not run_dir_for(path).exists()

    @pytest.mark.parametrize("how", ["truncated", "appended",
                                     "malformed-sidecar", "version-2"])
    def test_damaged_checkpoint_is_config_error(self, tmp_path, capsys, how):
        path = toy_yaml(tmp_path, detector="rnn", stages=1, n_blk=2,
                        sweep=(4.0,))
        assert cli.main(["train", "-c", str(path)]) == 0
        stem = cli._model_stem(run_dir_for(path), 1, 4.0)
        bin_path, json_path = stem.with_suffix(".bin"), stem.with_suffix(".json")
        if how == "truncated":
            bin_path.write_bytes(bin_path.read_bytes()[:-16])
        elif how == "appended":
            bin_path.write_bytes(bin_path.read_bytes() + bytes(8))
        elif how == "malformed-sidecar":
            json_path.write_text("{")
        else:
            meta = json.loads(json_path.read_text())
            meta["format_version"] = 2
            json_path.write_text(json.dumps(meta))
        capsys.readouterr()
        assert cli.main(["evaluate", "-c", str(path)]) == 2
        assert str(stem) in capsys.readouterr().err


class TestTrain:
    def test_single_point_writes_stage_checkpoints(self, tmp_path):
        path = toy_yaml(tmp_path, detector="rnn", stages=2, sweep=(4.0,))
        assert cli.main(["train", "-c", str(path)]) == 0
        models = sorted((run_dir_for(path) / "models").glob("*.bin"))
        assert len(models) == 2

    def test_warm_start_chain_logged(self, tmp_path):
        path = toy_yaml(tmp_path, detector="rnn", stages=1, sweep=(2.0, 6.0))
        assert cli.main(["train", "-c", str(path)]) == 0
        run_dir = run_dir_for(path)
        low = json.loads(
            (run_dir / "models" / "stage1_ptx+0002000mdb.json").read_text())
        high = json.loads(
            (run_dir / "models" / "stage1_ptx+0006000mdb.json").read_text())
        assert low["provenance"]["warm_start_from"] is None
        assert high["provenance"]["warm_start_from"] == 2.0

    def test_train_then_evaluate(self, tmp_path):
        path = toy_yaml(tmp_path, detector="rnn", stages=1, sweep=(6.0,),
                        n_blk=4)
        assert cli.main(["sweep", "-c", str(path)]) == 0
        lines = (run_dir_for(path) / "rates.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "rnn"

    def test_descending_sweep_rejected_with_warm_starts(self, tmp_path,
                                                         capsys):
        path = toy_yaml(tmp_path, detector="rnn", stages=1, sweep=(6.0, 2.0))
        assert cli.main(["train", "-c", str(path)]) == 2
        assert "sweep.p_tx_db" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_points_sharing_a_file_tag_rejected(self, tmp_path, capsys):
        path = toy_yaml(tmp_path, detector="rnn", stages=1, sweep=(3.0, 3.0004))
        assert cli.main(["sweep", "-c", str(path)]) == 2
        assert "sweep.p_tx_db" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestComplexityReport:
    def test_published_32ary_profile(self, tmp_path):
        """The wide six-stage profile reports ~2.3e5 multiplications per APP
        in complexity.csv (zero-iteration training just materializes the
        checkpoints)."""
        path = tmp_path / "wide.yaml"
        path.write_text(f"""
channel:
  alphabet: 32-ASK
  n_os: 2
  n_sim: 2
  nonlinearity: square-law
  k_g: 7
  precoding: differential-phase
sic: {{stages: 6}}
detector:
  kind: rnn
  rnn:
    l_y: 100
    l_ic: 64
    hidden: [200, 200, 200, 168]
    t_rnn: 120
    learn_rate: 4.0e-5
    n_batch: 4
    n_iter: 0
sweep: {{p_tx_db: [10.0]}}
eval: {{n_blk: 2, n: 24}}
seed: 5
output_dir: {tmp_path / 'out'}
""")
        assert cli.main(["sweep", "-c", str(path)]) == 0
        rows = (run_dir_for(path) / "complexity.csv").read_text().splitlines()
        counts = {int(r.split(",")[1]): float(r.split(",")[2])
                  for r in rows[1:]}
        assert all(f"{c:.1e}" == "2.3e+05" for c in counts.values())


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["evaluate", "-c", str(tmp_path / "nope.yaml")]) == 2

    def test_schema_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("channel: {alphabet: 4-ASK, bogus_key: 1}\n"
                        "detector: {kind: fba}\n")
        assert cli.main(["evaluate", "-c", str(path)]) == 2

    def test_train_with_non_rnn_detector(self, tmp_path):
        path = toy_yaml(tmp_path, detector="fba")
        assert cli.main(["train", "-c", str(path)]) == 2

    def test_divergence_exit_code(self, tmp_path):
        path = toy_yaml(tmp_path, detector="rnn", stages=1, sweep=(4.0,))
        text = path.read_text().replace("learn_rate: 2.0e-3",
                                        "learn_rate: 500.0")
        text = text.replace("n_iter: 40", "n_iter: 200")
        path.write_text(text)
        assert cli.main(["train", "-c", str(path)]) == 3

    @pytest.mark.parametrize("detector,old,new,key", [
        ("fba", "fba: {memory: 3}", "fba: {memory: 12}", "detector.fba.memory"),
        ("fba", "n: 24}", "n: 24, ub_memory: 12}", "eval.ub_memory"),
        ("fba", "n_blk: 6", "n_blk: 0", "eval.n_blk"),
        ("fba", "alphabet: 4-ASK", "alphabet: 5-ASK", "channel.alphabet"),
        ("gibbs", "n_iter: 30, n_par: 2, burn_in: 5",
         "n_iter: 10, n_par: 2, burn_in: 25", "detector.gibbs"),
        ("gibbs", "burn_in: 5", "burn_in: 30", "detector.gibbs.burn_in"),
        ("gibbs", "burn_in: 5", "burn_in: -1", "detector.gibbs.burn_in"),
        ("gibbs", "n_iter: 30", "n_iter: 0", "detector.gibbs.n_iter"),
        ("gibbs", "n_iter: 30", "n_iter: -3", "detector.gibbs.n_iter"),
        ("gibbs", "n_iter: 30", "n_iter: 5", "detector.gibbs.n_iter"),
        ("gibbs", "n_par: 2", "n_par: 0", "detector.gibbs.n_par"),
        ("rnn", "hidden: [16]", "hidden: [31]", "detector.rnn.hidden"),
        ("rnn", "t_rnn: 8", "t_rnn: 9", "detector.rnn.t_rnn"),
        ("fba", "precoding: differential-phase", "precoding: foo",
         "channel.precoding"),
        ("fba", "kind: real", "kind: foo", "channel.noise.kind"),
        ("fba", "n_sim: 2", "n_sim: 3", "channel.n_sim"),
        ("fba", "n_os: 2", "n_os: 0", "channel.n_os"),
        ("fba", "n_os: 2", "n_os: 12", "channel.n_os"),
        ("fba", "variance: 1.0", "variance: -1.0", "channel.noise.variance"),
        ("fba", "k_g: 7", "k_g: 8", "channel.k_g"),
        ("fba", "k_g: 7", "k_g: -7", "channel.k_g"),
        ("fba", "k_g: 7", "k_g: 7\n  k_h: 4", "channel.k_h"),
        ("fba", "k_g: 7", "k_g: 7\n  k_h: -3", "channel.k_h"),
        ("fba", "n_os: 2\n  n_sim: 2", "n_os: 1\n  n_sim: 1", "channel.n_sim"),
        ("fba", "n_os: 2\n  n_sim: 2\n  nonlinearity: square-law",
         "n_os: 1\n  n_sim: 0\n  nonlinearity: identity", "channel.n_sim"),
        ("fba", "k_g: 7", "k_g: 7\n  fiber: {length_km: .inf, "
         "beta2_s2_per_km: -2.2e-26}", "channel.fiber.length_km"),
        ("fba", "k_g: 7", "k_g: 7\n  fiber: {length_km: 1.0, "
         "beta2_s2_per_km: .nan}", "channel.fiber.beta2_s2_per_km"),
        ("fba", "k_g: 7", "k_g: 7\n  fiber: {carrier_nm: 1310.0}",
         "channel.fiber.carrier_nm"),
        ("fba", "k_g: 7", "k_g: 7\n  fiber: {beta2_s2_per_km: -2.2e-26}",
         "channel.fiber.length_km"),
        ("fba", "k_g: 7", "k_g: 7\n  fiber: {length_km: 1.0}",
         "channel.fiber.beta2_s2_per_km"),
        # a dispersed pulse is complex: only the square law makes it real
        ("fba", "square-law", "identity\n  symbol_rate: 1.0e10\n  fiber: "
         "{length_km: 1.0, beta2_s2_per_km: -2.0e-26}", "channel.nonlinearity"),
        ("rnn", "square-law", "identity\n  symbol_rate: 1.0e10\n  fiber: "
         "{length_km: 1.0, beta2_s2_per_km: -2.0e-26}", "channel.nonlinearity"),
        ("uniform", "square-law", "rapp\n  symbol_rate: 3.5e10\n  fiber: "
         "{length_km: 30.0, beta2_s2_per_km: -2.168e-23}", "channel.nonlinearity"),
        ("uniform", "square-law", "rapp\n  rapp: {p: 0}", "channel.rapp.p"),
        ("uniform", "square-law", "rapp\n  rapp: {p: -1}", "channel.rapp.p"),
        ("uniform", "square-law", "rapp\n  rapp: {x_sat: 0}",
         "channel.rapp.x_sat"),
        ("uniform", "square-law", "rapp\n  rapp: {x_sat: .nan}",
         "channel.rapp.x_sat"),
        ("uniform", "square-law", "rapp\n  rapp: {x_sat: -1}",
         "channel.rapp.x_sat"),
        ("fba", "n_iter: 30, n_par: 2, burn_in: 5",
         "n_iter: 10, n_par: 2, burn_in: 25", "detector.gibbs"),
        ("fba", "hidden: [16]", "hidden: [0]", "detector.rnn.hidden"),
        ("rnn", "hidden: [16]", "hidden: [-2]", "detector.rnn.hidden"),
        ("rnn", "hidden: [16]", "hidden: [0]", "detector.rnn.hidden"),
        ("rnn", "n_batch: 16", "n_batch: -1", "detector.rnn.n_batch"),
        ("rnn", "n_batch: 16", "n_batch: 0", "detector.rnn.n_batch"),
        ("rnn", "t_rnn: 8", "t_rnn: 0", "detector.rnn.t_rnn"),
        ("rnn", "t_rnn: 8", "t_rnn: -2", "detector.rnn.t_rnn"),
        ("rnn", "l_y: 8", "l_y: -3", "detector.rnn.l_y"),
        ("rnn", "l_ic: 4", "l_ic: -1", "detector.rnn.l_ic"),
        ("rnn", "l_y: 8\n    l_ic: 4", "l_y: 0\n    l_ic: 0",
         "detector.rnn.l_y"),
        ("rnn", "learn_rate: 2.0e-3", "learn_rate: .nan",
         "detector.rnn.learn_rate"),
        ("rnn", "learn_rate: 2.0e-3", "learn_rate: -1",
         "detector.rnn.learn_rate"),
        ("rnn", "n_iter: 40", "n_iter: -1", "detector.rnn.n_iter"),
        # no finite milli-dB tag, or no finite linear power 10**(p/10)
        ("uniform", "p_tx_db: [4.0]", "p_tx_db: [1.0e+306]", "sweep.p_tx_db"),
        ("uniform", "p_tx_db: [4.0]", "p_tx_db: [-1.0e+306]", "sweep.p_tx_db"),
        ("uniform", "p_tx_db: [4.0]", "p_tx_db: [5000.0]", "sweep.p_tx_db"),
        # finite fiber values whose dispersion phase overflows
        ("fba", "k_g: 7", "k_g: 41\n  symbol_rate: 1.0e300\n  fiber: "
         "{length_km: 10.0, beta2_s2_per_km: -2.17e-26}",
         "channel.symbol_rate, channel.fiber"),
        ("fba", "k_g: 7", "k_g: 41\n  symbol_rate: 3.5e10\n  fiber: "
         "{length_km: 1.0e300, beta2_s2_per_km: -1.0e10}",
         "channel.symbol_rate, channel.fiber"),
    ])
    def test_values_rejected_by_run_objects(self, tmp_path, capsys, detector,
                                            old, new, key):
        """Values the schema accepts but the run's own objects reject exit 2
        with the key named, before any work starts."""
        path = toy_yaml(tmp_path, detector=detector, sweep=(4.0,))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        assert cli.main(["sweep", "-c", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("detector,extra", [
        ("fba", ""), ("gibbs", ""), ("rnn", ""), ("uniform", ""),
        ("uniform", ", ub_memory: 1")])
    def test_complex_noise_needs_real_noise_detector(self, tmp_path, capsys,
                                                     detector, extra):
        """Every detector models real observations, which the channel
        guarantees: complex noise is a configuration error for each."""
        path = toy_yaml(tmp_path, detector=detector, sweep=(4.0,), extra=extra)
        path.write_text(path.read_text().replace("kind: real", "kind: complex"))
        assert cli.main(["sweep", "-c", str(path)]) == 2
        assert "channel.noise.kind" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_noise_settings_that_run(self, tmp_path):
        """A noiseless channel stays valid."""
        path = toy_yaml(tmp_path, detector="uniform", n_blk=2, sweep=(4.0,))
        path.write_text(path.read_text().replace(
            "{kind: real, variance: 1.0}", "{kind: real, variance: 0}"))
        assert cli.main(["evaluate", "-c", str(path)]) == 0

    def test_extreme_finite_powers_run(self, tmp_path):
        """Powers whose milli-dB tag and linear power are finite run, also
        where the linear power underflows to zero."""
        path = toy_yaml(tmp_path, detector="uniform", n_blk=2,
                        sweep=(-5000.0, -400.0, 400.0))
        assert cli.main(["evaluate", "-c", str(path)]) == 0

    def test_report_without_results(self, tmp_path):
        path = toy_yaml(tmp_path, sweep=(1.0,))
        assert cli.main(["report", "-c", str(path)]) == 2

    def test_report_prints_each_rate_row(self, tmp_path, capsys):
        """report prints one row per (power, stage) with the rates.csv
        values to four decimals, and '-' where there is no upper bound:
        the fba detector's run has one, the gibbs detector's none."""
        for detector, has_ub in (("fba", True), ("gibbs", False)):
            (tmp_path / detector).mkdir()
            path = toy_yaml(tmp_path / detector, detector=detector, n_blk=2,
                            n=8)
            assert cli.main(["evaluate", "-c", str(path)]) == 0
            capsys.readouterr()
            assert cli.main(["report", "-c", str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].split() == ["P_tx[dB]", "stage", "rate", "stderr",
                                        "I_SIC", "UB"]
            with open(run_dir_for(path) / "rates.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2 * 2
            assert len(lines) == 1 + len(rows)
            for line, row in zip(lines[1:], rows):
                assert bool(row["ub"]) == has_ub
                ub = f"{float(row['ub']):.4f}" if has_ub else "-"
                assert line.split() == [
                    f"{float(row['p_tx_db']):.2f}", row["stage"],
                    f"{float(row['rate']):.4f}", f"{float(row['stderr']):.4f}",
                    f"{float(row['i_sic']):.4f}", ub]

    def test_gibbs_metrics_that_both_overflow_exit_3(self, tmp_path, capsys):
        """At a power where both candidates' metrics of a bit overflow, the
        sampler has no odds to draw from: a numeric failure, not a bit
        decided on NaN."""
        path = toy_yaml(tmp_path, detector="gibbs", n_blk=2, n=8,
                        sweep=(1600.0,), seed=0)
        text = path.read_text()
        old = "gibbs: {memory: 3, n_iter: 30, n_par: 2, burn_in: 5}"
        assert old in text
        path.write_text(text.replace(
            old, "gibbs: {memory: 1, n_iter: 3, n_par: 2, burn_in: 1}"))
        assert cli.main(["evaluate", "-c", str(path)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def overflowing_trellis_run(self, tmp_path, capsys, detector, extra=""):
        path = toy_yaml(tmp_path, detector=detector, n_blk=2, n=8,
                        sweep=(1600.0,), seed=0, extra=extra)
        text = path.read_text()
        assert "fba: {memory: 3}" in text
        path.write_text(text.replace("fba: {memory: 3}", "fba: {memory: 1}"))
        assert cli.main(["evaluate", "-c", str(path)]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: trellis step 1: branch metric overflow" in err
        assert not run_dir_for(path).exists()

    def test_trellis_metric_overflow_exit_3(self, tmp_path, capsys):
        """At a power where the squared differences of a trellis step
        overflow, no path survives it: a numeric failure named as the
        metric overflow, not as inconsistent pinning, and no warning."""
        self.overflowing_trellis_run(tmp_path, capsys, "fba")

    def test_bound_metric_overflow_exit_3(self, tmp_path, capsys):
        """The same for the bound's trellis beside another detector."""
        self.overflowing_trellis_run(tmp_path, capsys, "uniform",
                                     extra=", ub_memory: 1")


class TestManifest:
    def test_manifest_reproducibility_fields(self, tmp_path):
        path = toy_yaml(tmp_path, n_blk=3, sweep=(4.0,))
        cli.main(["evaluate", "-c", str(path)])
        manifest = json.loads((run_dir_for(path) / "manifest.json").read_text())
        assert set(manifest) == {"config_hash", "code_hash", "seed",
                                 "wall_seconds", "workers", "usable_cpus",
                                 "artifacts"}
        # one sweep point: nothing to run in parallel
        assert manifest["workers"] == 1
        assert manifest["usable_cpus"] >= 1
        assert manifest["config_hash"] == run_dir_for(path).name
        assert "rates.csv" in manifest["artifacts"]
        resolved = json.loads((run_dir_for(path) / "config.json").read_text())
        assert cfgmod.config_hash(cfgmod.parse_config(resolved)) == \
            manifest["config_hash"]

    def test_sweep_writes_one_manifest(self, tmp_path, monkeypatch):
        """sweep's manifest lists what train and evaluate made, with the
        wall time of both and the larger of their worker counts."""
        set_cpus(monkeypatch, 2)
        train_stage = training.train_stage

        def slow(*args, **kwargs):
            time.sleep(0.25)
            return train_stage(*args, **kwargs)

        monkeypatch.setattr(training, "train_stage", slow)
        path = toy_yaml(tmp_path, detector="rnn", stages=2, n_blk=2,
                        sweep=(4.0,))
        assert cli.main(["sweep", "-c", str(path)]) == 0
        run_dir = run_dir_for(path)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        made = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
                      if p.is_file()
                      and p.name not in ("config.json", "manifest.json"))
        assert manifest["artifacts"] == made
        assert sum(n.startswith("models/trainlog") for n in made) == 2
        assert "rates.csv" in made
        # train ran its two stage chains at once, evaluate its one point alone
        assert manifest["workers"] == 2
        assert manifest["wall_seconds"] >= 0.25


def artifact_bytes(run_dir):
    """Every file of a run directory but the manifest, which holds timing."""
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestParallel:
    """train runs its stage chains and evaluate its sweep points in forked
    workers; the artifacts must not depend on how many there are."""

    @pytest.mark.parametrize("command,detector", [("sweep", "rnn"),
                                                  ("evaluate", "fba"),
                                                  ("evaluate", "gibbs")])
    def test_forked_run_matches_one_cpu_run(self, tmp_path, monkeypatch,
                                            command, detector):
        # one Gibbs sweep point: its chains, not the points, are split; the
        # toy slices are far below FORK_UPDATES, so it is lowered to split them
        sweep = (4.0,) if detector == "gibbs" else (2.0, 4.0, 6.0)
        monkeypatch.setattr(gibbs, "FORK_UPDATES", 0)
        path = toy_yaml(tmp_path, detector=detector, stages=2, n_blk=3,
                        sweep=sweep)
        run_dir = run_dir_for(path)
        runs = []
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus)
            assert cli.main([command, "-c", str(path)]) == 0
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest["workers"] == cpus
            assert manifest["usable_cpus"] == cpus
            runs.append(artifact_bytes(run_dir))
            shutil.rmtree(run_dir)
        assert runs[0] == runs[1]
        names = set(runs[0])
        assert {"rates.csv", "complexity.csv", "summary.json"} <= names
        if detector == "rnn":
            assert sum(n.endswith(".bin") for n in names) == 6
            assert sum(n.startswith("models/trainlog") for n in names) == 6

    def test_each_stage_line_printed_once_in_order(self, tmp_path):
        path = toy_yaml(tmp_path, detector="rnn", stages=2, n_blk=2,
                        sweep=(2.0, 4.0, 6.0))
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "nlsic.cli", "sweep", "-c", str(path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        trained = [line.split(":")[0] for line in lines
                   if line.startswith("trained stage")]
        assert trained == [f"trained stage {s} at {p:+.2f} dB"
                           for p in (2.0, 4.0, 6.0) for s in (1, 2)]
        assert sum(line.startswith("wrote ") for line in lines) == 1

    def test_damaged_checkpoint_in_worker_is_config_error(self, tmp_path,
                                                          monkeypatch, capsys):
        path = toy_yaml(tmp_path, detector="rnn", stages=1, n_blk=2,
                        sweep=(2.0, 6.0))
        set_cpus(monkeypatch, 2)
        assert cli.main(["train", "-c", str(path)]) == 0
        # the second sweep point is the forked worker's share
        bin_path = cli._model_stem(run_dir_for(path), 1, 6.0).with_suffix(".bin")
        bin_path.write_bytes(bin_path.read_bytes()[:-16])
        capsys.readouterr()
        assert cli.main(["evaluate", "-c", str(path)]) == 2
        assert f"bad checkpoint {bin_path.with_suffix('')}" in \
            capsys.readouterr().err
        # the failed command did not make the run directory, so it stays
        assert bin_path.exists()

    @pytest.mark.parametrize("exc", [
        FloatingPointError("overflow injected in stage 2"),
        training.TrainDivergence(7, [1.5, 30.0, 41.25])])
    def test_numeric_failure_in_worker_exits_3(self, tmp_path, monkeypatch,
                                               capsys, exc):
        path = toy_yaml(tmp_path, detector="rnn", stages=2, sweep=(4.0,))
        set_cpus(monkeypatch, 2)
        train_stage = training.train_stage

        def failing(chan, plan, s, *args, **kwargs):
            if s == 2:  # the forked worker's chain
                raise exc
            return train_stage(chan, plan, s, *args, **kwargs)

        monkeypatch.setattr(training, "train_stage", failing)
        assert cli.main(["train", "-c", str(path)]) == 3
        assert capsys.readouterr().err == f"numeric failure: {exc}\n"

    @pytest.mark.parametrize("sweep", [(0.0,), (0.0, 1.0)])
    def test_allocation_that_cannot_succeed_exits_3(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     sweep):
        """eval.n = 10^17 asks for 711 PiB of symbols per block, which no
        overcommit policy grants: numpy's MemoryError, raised in this
        process or a forked sweep point, exits 3 naming the command and
        leaves no run directory behind."""
        path = toy_yaml(tmp_path, detector="uniform", stages=1, n_blk=1,
                        n=10**17, sweep=sweep)
        set_cpus(monkeypatch, 2)
        assert cli.main(["evaluate", "-c", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: evaluate: out of memory: "
                              "Unable to allocate 711. PiB"), err
        assert not run_dir_for(path).exists()

    def test_map_keeps_order_and_raises_first_failure(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        assert parallel.parallel_map(lambda x: x * x, range(7)) == \
            ([x * x for x in range(7)], 2)

        def fn(x):
            if x >= 1:  # item 1 fails in the worker, item 2 in this process
                raise FloatingPointError(f"item {x}")
            return x

        with pytest.raises(FloatingPointError, match="item 1"):
            parallel.parallel_map(fn, range(4))

    def test_nested_map_gets_the_cpus_left_to_its_unit(self, monkeypatch):
        set_cpus(monkeypatch, 2)

        def inner(_):
            return parallel.workers(8)

        # an outer map that uses every CPU leaves each unit one
        assert parallel.parallel_map(inner, range(2)) == ([1, 1], 2)
        # a lone unit keeps them all, and its nested map's processes count
        assert parallel.parallel_map(
            lambda _: parallel.parallel_map(inner, range(2))[0], [0]) == \
            ([[1, 1]], 2)
        assert parallel.workers(8) == 2

    def test_children_reaped_when_own_share_fails(self, monkeypatch):
        set_cpus(monkeypatch, 2)

        def fn(x):
            if x == 0:
                raise FloatingPointError("own share")
            return x

        with pytest.raises(FloatingPointError, match="own share"):
            parallel.parallel_map(fn, range(4))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


TINY_CONFIG = {
    "channel": {"alphabet": "4-ASK", "symbol_rate": 1.0, "n_os": 2, "n_sim": 2,
                "nonlinearity": "square-law", "rapp": {"p": 3.0, "x_sat": 1.0},
                "k_g": 3, "k_h": 1, "noise": {"kind": "real", "variance": 1.0},
                "fiber": {"length_km": 1.0, "beta2_s2_per_km": -2.2e-26},
                "precoding": "differential-phase"},
    "sic": {"stages": 2},
    "detector": {"kind": "gibbs", "fba": {"memory": 1},
                 "gibbs": {"memory": 1, "n_iter": 2, "n_par": 2, "burn_in": 1}},
    "sweep": {"p_tx_db": [3.0, 6.0]},
    "eval": {"n_blk": 1, "n": 4, "ub_memory": 1},
    "seed": 5,
}


TINY_RNN_CONFIG = {
    "channel": {"alphabet": "4-ASK", "n_os": 2, "n_sim": 2, "k_g": 3,
                "precoding": "differential-phase"},
    "sic": {"stages": 2},
    "detector": {"kind": "rnn",
                 "rnn": {"l_y": 4, "l_ic": 2, "hidden": [2], "t_rnn": 2,
                         "learn_rate": 0.01, "n_batch": 2, "n_iter": 1,
                         "warm_start": True}},
    "sweep": {"p_tx_db": [3.0]},
    "eval": {"n_blk": 1, "n": 4},
    "seed": 5,
}


TINY_RAPP_FBA_CONFIG = {
    "channel": {"alphabet": "4-ASK", "n_os": 2, "n_sim": 2,
                "nonlinearity": "rapp", "rapp": {"p": 3.0, "x_sat": 1.0},
                "k_g": 3, "noise": {"kind": "real", "variance": 1.0}},
    "sic": {"stages": 2},
    "detector": {"kind": "fba", "fba": {"memory": 1, "future": 0}},
    "sweep": {"p_tx_db": [3.0]},
    "eval": {"n_blk": 2, "n": 4, "ub_memory": 1},
    "seed": 5,
}


TINY_UNIFORM_CONFIG = {
    "channel": {"alphabet": "2-ASK", "n_os": 1, "n_sim": 1,
                "nonlinearity": "identity", "k_g": 1,
                "noise": {"kind": "real", "variance": 1.0}},
    "sic": {"stages": 1},
    "detector": {"kind": "uniform"},
    "sweep": {"p_tx_db": [0.0]},
    "eval": {"n_blk": 2, "n": 4},
    "seed": 5,
}


def _leaf_paths(tree, prefix=()):
    """Key paths of every scalar in a nested config, list items included."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, prefix + (key,))


# ints, floats, strings and empty values, mostly out of range; all small, so
# an accepted mutation still runs in milliseconds
MUTANTS = [-1, 0, 1, 12, -1.5, 0.5, float("inf"), float("nan"), "", "foo",
           "fba", "uniform", "rnn", "complex", "identity", None, [], {}]


# every leaf of the gibbs, the rapp + fba and the identity + uniform
# evaluate bases, and the detector.rnn leaves of the rnn sweep base
MUTATED = [pytest.param(prefix + ".".join(map(str, path)), command, base, path,
                        id=prefix + ".".join(map(str, path)))
           for prefix, command, base in (
               ("", "evaluate", TINY_CONFIG),
               ("rapp-fba-", "evaluate", TINY_RAPP_FBA_CONFIG),
               ("uniform-", "evaluate", TINY_UNIFORM_CONFIG),
               ("", "sweep", TINY_RNN_CONFIG))
           for path in sorted(_leaf_paths(base), key=str)
           if command == "evaluate" or path[:2] == ("detector", "rnn")
           and len(path) > 2]

# (case id, repr of the mutant) -> why that mutant may fail numerically
# (exit 3) rather than run or be refused; none needs to today
EXIT_3_ALLOWED = {}


class TestEveryConfigRunsOrExits:
    @pytest.mark.parametrize("case,command,base,path", MUTATED)
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=len(MUTANTS))
    @given(value=st.sampled_from(MUTANTS))
    def test_one_mutated_key(self, tmp_path_factory, case, command, base, path,
                             value):
        """A tiny valid config with one key replaced runs (0) or is refused
        as a configuration error (2); only the mutants in EXIT_3_ALLOWED may
        fail numerically (3).  It never ends in a traceback.  A refused
        value names its key; a list entry is named by its list's key."""
        data = copy.deepcopy(base)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        out = tmp_path_factory.mktemp("mutant")
        data["output_dir"] = str(out / "out")
        config = out / "exp.yaml"
        config.write_text(yaml.safe_dump(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = cli.main([command, "-c", str(config)])
        allowed = (0, 2, 3) if (case, repr(value)) in EXIT_3_ALLOWED else (0, 2)
        assert status in allowed, err.getvalue()
        if status == 2:
            key = ".".join(k for k in path if isinstance(k, str))
            assert key in err.getvalue()
