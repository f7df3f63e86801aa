"""Rate estimators: exact ceilings, quadrature mutual-information oracle,
the SDD <= SIC <= UB sandwich, duality with the training loss,
reproducibility, and the detector contract: a stage call equals its
one-block calls."""

import numpy as np
import pytest
from scipy.integrate import quad

from nlsic import channel as ch
from nlsic import apps, fba, gibbs, rates, rnn, sic, training
from nlsic.apps import AppMatrix


def dispersive_4ask_channel(p_tx_db):
    """Shrunken short-reach link: sinc pulse with three symbols of memory,
    square-law detection, two samples per symbol, sign precoding."""
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=2,
                           nonlinearity=ch.SquareLaw(), noise_variance=1.0,
                           precoding="differential-phase")
    return ch.make_channel(cfg, k_g=7).with_transmit_power_db(p_tx_db)


def memoryless_4ask_channel(p_tx_db):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=1.0)
    chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0])))
    return chan.with_transmit_power_db(p_tx_db)


def quadrature_mutual_information(levels, sigma2=1.0):
    """I(X;Y) of a uniform discrete input over an AWGN channel, in bits."""
    m = len(levels)

    def cond_entropy_integrand(y):
        pdf = np.exp(-(y - levels) ** 2 / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)
        total = pdf.sum() / m
        if total <= 0:
            return 0.0
        post = pdf / pdf.sum()
        ent = -np.sum(post[post > 0] * np.log2(post[post > 0]))
        return total * ent

    lim = np.max(np.abs(levels)) + 10
    h_xy, _ = quad(cond_entropy_integrand, -lim, lim, limit=400)
    return np.log2(m) - h_xy


def fba_detector(aux):
    return lambda ys, views, rng: fba.fba_point_apps(aux, ys, views)


def rnn_detector(models):
    """models: stage index (1-based) -> RnnModel."""
    return rates.stage_by_stage(
        lambda y, view, rng: rnn.rnn_apps(models[view.s], y, view))


def oracle_apps(chan, x, shift=0):
    """Test double that reads the truth: a point mass on each target's true
    symbol, or `shift` alphabet indices above it."""
    def apps(y, view, rng):
        m = chan.config.alphabet.size
        truth = (chan.symbol_indices(x[:, view.targets]) + shift) % m
        probs = np.zeros(truth.shape + (m,))
        np.put_along_axis(probs, truth[..., None], 1.0, axis=-1)
        return AppMatrix(probs=probs, positions=view.targets)
    return rates.stage_by_stage(apps)


def oracle_stage_rate(chan, n, n_blk, seed, shift=0):
    blocks = rates.simulate_eval_blocks(chan, n_blk, n, np.random.default_rng(seed))
    det = oracle_apps(chan, blocks.x, shift)
    return rates.evaluate_stage_on_blocks(det, chan, sic.SicPlan(1, n), 1,
                                          blocks, None)


class TestCeilings:
    def test_uniform_detector_zero_rate(self):
        chan = memoryless_4ask_channel(3.0)
        det = rates.uniform_apps(4)
        sr = rates.estimate_sic(det, chan, sic.SicPlan(1, 32), 5,
                                np.random.default_rng(0)).stage_rates[0]
        assert sr.rate == pytest.approx(0.0, abs=1e-12)
        assert not sr.flagged

    def test_oracle_detector_hits_entropy(self):
        sr = oracle_stage_rate(memoryless_4ask_channel(3.0), 32, 5, 1)
        assert sr.rate == pytest.approx(2.0, abs=1e-12)

    def test_wrong_point_mass_flags_clamps(self):
        sr = oracle_stage_rate(memoryless_4ask_channel(3.0), 16, 4, 2, shift=1)
        assert sr.flagged
        assert sr.clamp_fraction == 1.0
        assert sr.rate == pytest.approx(2.0 + np.log2(1e-30))


class TestAgainstQuadrature:
    def test_memoryless_exact_fba_matches_mutual_information(self):
        chan = memoryless_4ask_channel(6.0)
        aux = fba.build_aux_channel(chan, memory=0)
        det = fba_detector(aux)
        rng = np.random.default_rng(3)
        sr = rates.estimate_sic(det, chan, sic.SicPlan(1, 256), 40,
                                rng).stage_rates[0]
        target = quadrature_mutual_information(chan.levels)
        assert sr.rate == pytest.approx(target, abs=3 * sr.stderr + 1e-6)


class TestSicAggregation:
    def test_single_stage_is_sdd(self):
        chan = dispersive_4ask_channel(4.0)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        rep = rates.estimate_sic(fba_detector(aux), chan, sic.SicPlan(1, 48),
                                 10, np.random.default_rng(4))
        assert [sr.s for sr in rep.stage_rates] == [1]
        assert rep.i_sic == rep.stage_rates[0].rate

    def test_sic_is_exact_stage_average(self):
        chan = dispersive_4ask_channel(4.0)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        rep = rates.estimate_sic(fba_detector(aux), chan, sic.SicPlan(4, 48),
                                 8, np.random.default_rng(5))
        assert rep.i_sic == pytest.approx(
            np.mean([sr.rate for sr in rep.stage_rates]), abs=1e-15)

    def test_rate_sandwich_and_entropy_bound(self):
        chan = dispersive_4ask_channel(6.0)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        det = fba_detector(aux)
        rng = np.random.default_rng(6)
        n, n_blk = 96, 24
        sdd = rates.estimate_sic(det, chan, sic.SicPlan(1, n), n_blk, rng,
                                 ub_aux=aux)
        s4 = rates.estimate_sic(det, chan, sic.SicPlan(4, n), n_blk, rng)
        slack_lo = 3 * np.hypot(sdd.i_sic_stderr, s4.i_sic_stderr)
        slack_hi = 3 * np.hypot(s4.i_sic_stderr, sdd.ub_stderr)
        assert sdd.i_sic <= s4.i_sic + slack_lo
        assert s4.i_sic <= sdd.ub + slack_hi
        for sr in s4.stage_rates:
            assert -1e-9 <= sr.rate <= 2.0 + 1e-9

    def test_stage_rates_soft_monotone(self):
        chan = dispersive_4ask_channel(6.0)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        rep = rates.estimate_sic(fba_detector(aux), chan, sic.SicPlan(4, 96),
                                 24, np.random.default_rng(7))
        for lo, hi in zip(rep.stage_rates[:-1], rep.stage_rates[1:]):
            assert hi.rate >= lo.rate - 3 * np.hypot(lo.stderr, hi.stderr)

    def test_noiseless_invertible_all_stages_full_rate(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=1, n_sim=1,
                               nonlinearity=ch.Identity(), noise_variance=1e-6)
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0])))
        chan = chan.with_transmit_power(10.0)
        aux = fba.build_aux_channel(chan, memory=0)
        rep = rates.estimate_sic(fba_detector(aux), chan, sic.SicPlan(2, 32),
                                 6, np.random.default_rng(8))
        for sr in rep.stage_rates:
            assert sr.rate == pytest.approx(2.0, abs=1e-6)

    def test_reproducible_to_the_last_bit(self):
        chan = dispersive_4ask_channel(5.0)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        det = fba_detector(aux)
        rep1 = rates.estimate_sic(det, chan, sic.SicPlan(2, 48), 6,
                                  np.random.default_rng(99), ub_aux=aux)
        rep2 = rates.estimate_sic(det, chan, sic.SicPlan(2, 48), 6,
                                  np.random.default_rng(99), ub_aux=aux)
        assert rep1.i_sic == rep2.i_sic
        assert rep1.ub == rep2.ub
        assert rep1.stage_rates == rep2.stage_rates


class TestLossRateDuality:
    def test_stage_rate_equals_bits_minus_loss(self):
        """m - training loss and the rate estimator agree on shared data."""
        chan = memoryless_4ask_channel(5.0)
        shape = rnn.RnnShape(dims=(3, 8), l_y=3, l_ic=0, n_stages=1, s=1,
                             m_symbols=4, n_os=1)
        model = rnn.init_model(shape, np.random.default_rng(9),
                               norm=rnn.Normalization(0.1, 2.0, 1.0))
        n = 24
        plan = sic.SicPlan(1, n)
        blocks = rates.simulate_eval_blocks(chan, 6, n, np.random.default_rng(10))
        det = rnn_detector({1: model})
        sr = rates.evaluate_stage_on_blocks(det, chan, plan, 1, blocks, None)

        indexer = rnn.build_indexer(plan, 1, shape)
        total_bits = []
        for i in range(len(blocks)):
            inputs = rnn.gather_inputs(indexer, blocks.y[i:i + 1],
                                       np.zeros((1, 0)), model.norm)
            batch = training.Batch(
                inputs=inputs, targets=chan.symbol_indices(blocks.x[i:i + 1]))
            bits, _ = training.loss(model, batch)
            total_bits.append(2.0 - bits)
        assert sr.rate == pytest.approx(np.mean(total_bits), abs=1e-12)


def stage_detector(kind, chan, n_stages):
    if kind == "fba-exact":
        return fba_detector(fba.build_aux_channel(chan, memory=chan.memory))
    if kind == "fba-truncated":
        return fba_detector(fba.build_aux_channel(chan, memory=1))
    if kind == "gibbs":
        aux = fba.build_aux_channel(chan, memory=2, build_table=False)
        cfg = gibbs.GibbsConfig(memory=2, n_iter=6, n_par=3, burn_in=1)
        return rates.stage_by_stage(
            lambda y, view, rng: gibbs.gibbs_apps(aux, y, view, cfg, rng))
    if kind == "rnn":
        return rnn_detector({s: rnn.init_model(
            rnn.RnnShape(dims=(12, 16), l_y=8, l_ic=4, n_stages=n_stages, s=s,
                         m_symbols=4, n_os=2), np.random.default_rng(12 + s))
            for s in range(1, n_stages + 1)})
    return rates.uniform_apps(4)


class TestDetectorContract:
    @pytest.mark.parametrize("kind", ["fba-truncated", "gibbs", "rnn"])
    def test_complex_observations_refused(self, kind):
        """Observations are real by construction; a complex array passed in
        by hand is refused, not cast to its real part."""
        chan = dispersive_4ask_channel(4.0)
        det = stage_detector(kind, chan, 2)
        blocks = rates.simulate_eval_blocks(chan, 2, 8, np.random.default_rng(3))
        with pytest.raises(ValueError, match="observations must be real"):
            det([blocks.y + 0.5j],
                [sic.stage_view(sic.SicPlan(2, 8), 1, blocks.x)],
                np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["fba-exact", "fba-truncated", "gibbs",
                                      "rnn", "uniform"])
    def test_point_call_equals_its_stage_calls(self, kind):
        """One call over every stage of a sweep point gives, bit for bit,
        the APPs of one call per stage, in stage order, and leaves the
        caller's generator where those calls leave it."""
        chan = dispersive_4ask_channel(4.0)
        n_stages, n = 4, 24
        det = stage_detector(kind, chan, n_stages)
        plan = sic.SicPlan(n_stages, n)
        rng = np.random.default_rng(41)
        blocks = [rates.simulate_eval_blocks(chan, 3, n, rng)
                  for _ in range(n_stages)]
        views = [sic.stage_view(plan, s, b.x)
                 for s, b in zip(range(1, n_stages + 1), blocks)]
        point_rng, serial_rng = np.random.default_rng(5), np.random.default_rng(5)
        point = det([b.y for b in blocks], views, point_rng)
        serial = [det([b.y], [view], serial_rng)[0]
                  for b, view in zip(blocks, views)]
        assert len(point) == n_stages
        for got, want, view in zip(point, serial, views):
            assert np.array_equal(got.probs, want.probs)
            assert np.array_equal(got.positions, view.targets)
        assert point_rng.random() == serial_rng.random()
        assert point_rng.spawn(1)[0].random() == serial_rng.spawn(1)[0].random()

    @pytest.mark.parametrize("slice_bytes", [apps.SLICE_BYTES, 1])
    @pytest.mark.parametrize("kind", ["fba-exact", "fba-truncated", "gibbs",
                                      "rnn", "uniform"])
    def test_stage_call_equals_its_one_block_calls(self, monkeypatch, kind,
                                                   slice_bytes):
        """One call over a stage's blocks gives, bit for bit, the rows of
        one call per block, in order, also when the blocks run in several
        slices, and leaves the caller's generator where the one-block calls
        leave it.  The network's matrix products round differently for
        different row counts, so its multi-block slices agree to 1e-12."""
        chan = dispersive_4ask_channel(4.0)
        n_stages, n = 4, 24
        det = stage_detector(kind, chan, n_stages)
        plan = sic.SicPlan(n_stages, n)
        blocks = rates.simulate_eval_blocks(chan, 3, n, np.random.default_rng(31))
        x, y = blocks.x, blocks.y
        monkeypatch.setattr(apps, "SLICE_BYTES", slice_bytes)
        for s in range(1, n_stages + 1):
            stage_rng = np.random.default_rng(s)
            [stage] = det([y], [sic.stage_view(plan, s, x)], stage_rng)
            serial_rng = np.random.default_rng(s)
            ones = [det([y[i:i + 1]], [sic.stage_view(plan, s, x[i:i + 1])],
                        serial_rng)[0] for i in range(len(blocks))]
            assert stage.probs.shape == (len(blocks), n // n_stages, 4)
            want = np.concatenate([o.probs for o in ones])
            if kind == "rnn" and slice_bytes != 1:
                assert np.abs(stage.probs - want).max() < 1e-12
            else:
                assert np.array_equal(stage.probs, want)
            for app in [stage] + ones:
                assert np.array_equal(app.positions, plan.stage_positions(s))
            assert stage_rng.random() == serial_rng.random()
            assert stage_rng.spawn(1)[0].random() == \
                serial_rng.spawn(1)[0].random()
