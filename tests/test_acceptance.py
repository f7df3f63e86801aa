"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines; the
suite is deterministic (fixed seeds) and sized for a desktop CPU.
"""

import itertools
import time

import numpy as np
import pytest

from nlsic import channel as ch
from nlsic import cli, fba, gibbs, rates, rnn, sic, training
from nlsic.apps import MultCounter


def _announce(num, name, detail=""):
    print(f"ACCEPTANCE {num} {name}: PASS {detail}".rstrip())


def linear_2ask_channel(power_db):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=1.0)
    chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([0.4, 1.0, 0.3])))
    return chan.with_transmit_power_db(power_db)


def sld_2pam_channel(power_db):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.unipolar_pam(2), n_os=2, n_sim=2,
                           nonlinearity=ch.SquareLaw(), noise_variance=1.0)
    return ch.make_channel(cfg, k_g=5).with_transmit_power_db(power_db)


def dispersive_4ask_channel(power_db):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=2,
                           nonlinearity=ch.SquareLaw(), noise_variance=1.0,
                           precoding="differential-phase")
    return ch.make_channel(cfg, k_g=7).with_transmit_power_db(power_db)


def fba_detector(aux):
    return lambda ys, views, rng: fba.fba_point_apps(aux, ys, views)


def test_criterion_1_fba_oracle_equivalence():
    """Exact-memory trellis APPs equal exhaustive Bayes posteriors to 1e-9
    over 100 noise draws on two three-tap toys (linear and square-law)."""
    t0 = time.perf_counter()
    n = 8
    rng = np.random.default_rng(20240801)
    for chan in (linear_2ask_channel(2.0), sld_2pam_channel(5.0)):
        assert chan.memory == 2
        aux = fba.build_aux_channel(chan, memory=2)
        assert aux.is_exact
        plan = sic.SicPlan(1, n)
        # oracle mean table: noiseless output of every length-8 sequence
        import dataclasses
        clean = dataclasses.replace(
            chan, config=dataclasses.replace(chan.config, noise_variance=0.0))
        seqs = np.array(list(itertools.product(range(2), repeat=n)))
        means = ch.simulate_batch(clean, chan.levels[seqs]).y
        worst = 0.0
        for _ in range(100):
            blk = ch.random_block(chan, n, rng)
            logls = -np.sum((blk.y - means) ** 2, axis=1) / 2.0
            w = np.exp(logls - logls.max())
            w /= w.sum()
            post = np.zeros((n, 2))
            for weight, s in zip(w, seqs):
                post[np.arange(n), s] += weight
            app = fba.fba_point_apps(aux, [blk.y], [sic.stage_view(plan, 1, blk.x)])[0]
            worst = max(worst, float(np.abs(app.probs[0] - post).max()))
        assert worst < 1e-9, worst
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _announce(1, "FBA oracle equivalence",
              f"(max |err| {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_gradient_exactness():
    """Backpropagation vs central finite differences (h=1e-5) on the two
    stated shapes, five seeds each: max relative error <= 1e-4.  Seeds are
    fixed at points where no pre-activation straddles a rectifier kink, so
    the difference quotient is a valid derivative estimate."""
    t0 = time.perf_counter()

    def check(dims, l_y, l_ic, n_stages, t_rnn, seed, h=1e-5):
        shape = rnn.RnnShape(dims=dims, l_y=l_y, l_ic=l_ic, n_stages=n_stages,
                             s=1, m_symbols=4, n_os=2)
        p = shape.phases
        assert t_rnn % p == 0
        gen = np.random.default_rng(seed)
        model = rnn.init_model(shape, gen)
        batch = training.Batch(
            inputs=gen.normal(size=(3, t_rnn, dims[0])),
            targets=gen.integers(0, 4, size=(3, t_rnn // p)))
        _, cache = rnn.forward(model, batch.inputs, want_cache=True)
        margin = min(np.abs(a).min() for a in cache.pre)
        assert margin > 10 * h, "fixture seed lost its kink margin"
        grads, _, _ = training.backward(model, batch)
        worst = 0.0
        for (name, arr), (_, grad) in zip(model.parameters(),
                                          grads.parameters()):
            gf = grad.reshape(-1)
            flat = arr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = training.loss(model, batch)
                flat[k] = orig - h
                dn, _ = training.loss(model, batch)
                flat[k] = orig
                fd = (up - dn) / (2 * h)
                worst = max(worst, abs(fd - gf[k])
                            / max(abs(fd), abs(gf[k]), 1e-8))
        return worst

    worst = 0.0
    for seed in (0, 5, 6, 7, 8):
        worst = max(worst, check((6, 8), 4, 2, 2, 8, seed))
    for seed in (2, 4, 11, 12, 16):
        worst = max(worst, check((8, 12, 8), 6, 2, 3, 6, seed))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4, worst
    assert elapsed < 60.0
    _announce(2, "gradient exactness",
              f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_rate_sandwich():
    """Separate detection <= SIC <= auxiliary-channel upper bound within
    three standard errors, for S in {1, 2, 4} at three powers."""
    t0 = time.perf_counter()
    n, n_blk = 96, 40
    details = []
    for power_db in (2.0, 6.0, 10.0):
        chan = dispersive_4ask_channel(power_db)
        assert chan.memory == 3
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        assert aux.is_exact
        det = fba_detector(aux)
        rng = np.random.default_rng(int(1000 + power_db * 10))
        reports = {s: rates.estimate_sic(det, chan, sic.SicPlan(s, n), n_blk,
                                         rng, ub_aux=aux if s == 1 else None)
                   for s in (1, 2, 4)}
        sdd = reports[1]
        ub, ub_se = sdd.ub, sdd.ub_stderr
        for s in (2, 4):
            r = reports[s]
            lo_slack = 3 * np.hypot(sdd.i_sic_stderr, r.i_sic_stderr)
            hi_slack = 3 * np.hypot(r.i_sic_stderr, ub_se)
            assert sdd.i_sic <= r.i_sic + lo_slack, (power_db, s)
            assert r.i_sic <= ub + hi_slack, (power_db, s)
        assert sdd.i_sic <= ub + 3 * np.hypot(sdd.i_sic_stderr, ub_se)
        details.append(f"{power_db:g}dB: {sdd.i_sic:.3f}<="
                       f"{reports[2].i_sic:.3f}<={reports[4].i_sic:.3f}"
                       f"<={ub:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _announce(3, "rate sandwich", f"({'; '.join(details)}, {elapsed:.0f}s)")


def test_criterion_4_nn_vs_fba_parity():
    """Trained single-stage network within 0.05 bpcu of the exact-memory
    trellis detector on shared evaluation blocks at a mid power."""
    t0 = time.perf_counter()
    chan = dispersive_4ask_channel(2.0)
    aux = fba.build_aux_channel(chan, memory=chan.memory)
    shape = rnn.RnnShape(dims=(16, 32), l_y=16, l_ic=0, n_stages=1, s=1,
                         m_symbols=4, n_os=2)
    plan = sic.SicPlan(1, 96)
    tcfg = training.TrainConfig(learn_rate=3e-3, n_iter=6000, n_batch=64,
                                t_rnn=32, seed=2024)
    assert tcfg.n_iter <= 20_000
    model, _ = training.train_stage(chan, plan, 1, shape, tcfg)

    blocks = rates.simulate_eval_blocks(chan, 40, 96, np.random.default_rng(555))
    r_fba = rates.evaluate_stage_on_blocks(fba_detector(aux), chan, plan,
                                           1, blocks, None)
    r_rnn = rates.evaluate_stage_on_blocks(
        rates.stage_by_stage(lambda y, view, rng: rnn.rnn_apps(model, y, view)),
        chan, plan, 1, blocks, None)
    gap = abs(r_fba.rate - r_rnn.rate)
    elapsed = time.perf_counter() - t0
    assert gap <= 0.05, (r_fba.rate, r_rnn.rate)
    assert elapsed < 1800.0
    _announce(4, "NN-vs-FBA parity",
              f"(FBA {r_fba.rate:.4f}, NN {r_rnn.rate:.4f}, gap {gap:.4f} "
              f"bpcu, {elapsed:.0f}s)")


def test_criterion_5_sic_gain_direction():
    """Mean SIC rate at four stages exceeds separate detection by at least
    three standard errors of the difference at a mid power."""
    chan = dispersive_4ask_channel(6.0)
    aux = fba.build_aux_channel(chan, memory=chan.memory)
    det = fba_detector(aux)
    n, n_blk = 96, 30
    rng = np.random.default_rng(77)
    r1 = rates.estimate_sic(det, chan, sic.SicPlan(1, n), n_blk, rng)
    r4 = rates.estimate_sic(det, chan, sic.SicPlan(4, n), n_blk, rng)
    sigma = np.hypot(r1.i_sic_stderr, r4.i_sic_stderr)
    gain = r4.i_sic - r1.i_sic
    assert gain >= 3 * sigma, (gain, sigma)
    _announce(5, "SIC gain direction",
              f"(gain {gain:.3f} bpcu = {gain / sigma:.0f} sigma)")


def test_criterion_6_noise_model():
    """Sampled noise in the twice-bandwidth brickwall setup: lag 0 within 1%
    of the configured variance, lags 1..10 within three standard errors of
    zero over one million samples."""
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=2,
                           nonlinearity=ch.SquareLaw(), noise_variance=1.0)
    chan = ch.make_channel(cfg, k_g=303).with_transmit_power(1e-12)
    rng = np.random.default_rng(4242)
    w = np.concatenate([ch.random_block(chan, 50_000, rng).y[0] for _ in range(10)])
    assert len(w) >= 1_000_000
    lag0 = float(np.mean(w * w))
    assert abs(lag0 - 1.0) < 0.01
    se = 1.0 / np.sqrt(len(w))
    worst_sigma = 0.0
    for lag in range(1, 11):
        acf = float(np.mean(w[:-lag] * w[lag:]))
        worst_sigma = max(worst_sigma, abs(acf) / se)
        assert abs(acf) < 3 * se, (lag, acf)
    _announce(6, "noise model",
              f"(lag0 {lag0:.4f}, worst lag {worst_sigma:.2f} sigma)")


def test_criterion_7_complexity_accounting():
    """Instrumented multiplication counts equal the closed form exactly for
    ten random shapes, and the published 4-ary profile rounds to 3.1e4."""
    rng = np.random.default_rng(99)
    for _ in range(10):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 14))]
        dims += [2 * int(rng.integers(2, 12)) for _ in range(depth)]
        m_sym = int(2 ** rng.integers(1, 4))
        shape = rnn.RnnShape(dims=tuple(dims), l_y=dims[0], l_ic=0, n_stages=1,
                             s=1, m_symbols=m_sym, n_os=2)
        model = rnn.init_model(shape, rng)
        t_steps = int(rng.integers(1, 8))
        counter = MultCounter()
        rnn.forward(model, rng.normal(size=(t_steps, dims[0])),
                    counter=counter)
        assert counter.total == t_steps * rnn.count_rnn_multiplications(shape)

    profile = rnn.RnnShape(dims=(96, 128, 64), l_y=64, l_ic=32, n_stages=2,
                           s=1, m_symbols=4, n_os=2)
    count = rnn.count_rnn_multiplications(profile)
    assert f"{count:.1e}" == "3.1e+04"
    _announce(7, "complexity accounting", f"(4-ary profile C_mul {count})")


def test_criterion_8_gibbs_sanity():
    """Sampler within 0.02 total variation of closed-form posteriors on a
    memoryless binary channel at 2000 sweeps and 8 chains."""
    t0 = time.perf_counter()
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=1.0)
    chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0])))
    chan = chan.with_transmit_power(1.5)
    aux = fba.build_aux_channel(chan, memory=0)
    n = 16
    blk = ch.random_block(chan, n, np.random.default_rng(3))
    view = sic.stage_view(sic.SicPlan(1, n), 1, blk.x)
    gcfg = gibbs.GibbsConfig(memory=0, n_iter=2000, n_par=8, burn_in=25)
    app = gibbs.gibbs_apps(aux, blk.y, view, gcfg, np.random.default_rng(11))
    r = chan.levels[1]
    p_plus = 1.0 / (1.0 + np.exp(-2.0 * blk.y[0] * r))
    tv = 0.5 * np.abs(app.probs[0] - np.stack([1 - p_plus, p_plus], axis=1)).sum(axis=1)
    elapsed = time.perf_counter() - t0
    assert tv.max() < 0.02, tv.max()
    assert elapsed < 60.0
    _announce(8, "Gibbs sanity", f"(max TV {tv.max():.4f}, {elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path):
    """Every CSV artifact byte-identical across two runs with one seed."""
    fba_yaml = tmp_path / "fba.yaml"
    fba_yaml.write_text(f"""
channel:
  alphabet: 4-ASK
  n_os: 2
  n_sim: 2
  nonlinearity: square-law
  k_g: 7
  precoding: differential-phase
sic: {{stages: 2}}
detector:
  kind: fba
  fba: {{memory: 3}}
sweep: {{p_tx_db: [2.0, 6.0]}}
eval: {{n_blk: 6, n: 24}}
seed: 31415
output_dir: {tmp_path / 'out'}
""")
    rnn_yaml = tmp_path / "rnn.yaml"
    rnn_yaml.write_text(f"""
channel:
  alphabet: 4-ASK
  n_os: 2
  n_sim: 2
  nonlinearity: square-law
  k_g: 7
  precoding: differential-phase
sic: {{stages: 2}}
detector:
  kind: rnn
  rnn: {{l_y: 8, l_ic: 4, hidden: [16], t_rnn: 8, learn_rate: 2.0e-3,
         n_batch: 16, n_iter: 30}}
sweep: {{p_tx_db: [2.0, 6.0]}}
eval: {{n_blk: 4, n: 24}}
seed: 27182
output_dir: {tmp_path / 'out'}
""")

    def csv_blobs():
        out = {}
        for p in sorted((tmp_path / "out").rglob("*.csv")):
            out[str(p)] = p.read_bytes()
        return out

    assert cli.main(["evaluate", "-c", str(fba_yaml)]) == 0
    assert cli.main(["sweep", "-c", str(rnn_yaml)]) == 0
    first = csv_blobs()
    assert any(p.endswith("rates.csv") for p in first)
    assert any("trainlog" in p for p in first)
    assert cli.main(["evaluate", "-c", str(fba_yaml)]) == 0
    assert cli.main(["sweep", "-c", str(rnn_yaml)]) == 0
    second = csv_blobs()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} changed between runs"
    _announce(9, "determinism", f"({len(first)} CSV artifacts byte-stable)")
