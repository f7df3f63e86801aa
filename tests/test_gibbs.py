"""Gibbs sampler: stationary distribution against closed-form posteriors,
chain independence, whole-stage calls, chains split across processes,
pinning, and multiplication accounting."""

import os

import numpy as np
import pytest

from nlsic import channel as ch
from nlsic import apps, fba, gibbs, parallel, sic
from nlsic.apps import MultCounter


def memoryless_channel(alphabet, p_tx=1.5, noise=1.0):
    cfg = ch.ChannelConfig(alphabet=alphabet, n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=noise)
    chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0]), rate=1))
    return chan.with_transmit_power(p_tx)


def block_apps(aux, blk, plan, cfg, rng, s=1):
    """Sampled APPs of one block at stage s, (N, M)."""
    view = sic.stage_view(plan, s, blk.x[None])
    return gibbs.gibbs_apps(aux, blk.y[None], view, cfg, rng).probs[0]


def stacked(blocks):
    return np.stack([blk.x for blk in blocks]), np.stack([blk.y for blk in blocks])


def memoryless_posterior(chan, y):
    """Per-symbol Bayes posterior of a memoryless Gaussian channel."""
    lv = chan.levels
    ll = -np.subtract.outer(y, lv) ** 2 / (2.0 * chan.config.noise_variance)
    w = np.exp(ll - ll.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            gibbs.GibbsConfig(memory=1, n_iter=10, n_par=0)
        with pytest.raises(ValueError):
            gibbs.GibbsConfig(memory=1, n_iter=10, n_par=1, burn_in=10)
        with pytest.raises(ValueError):
            gibbs.GibbsConfig(memory=1, n_iter=10, n_par=1, burn_in=-1)

    def test_memory_must_match_aux(self):
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(2))
        aux = fba.build_aux_channel(chan, memory=0)
        cfg = gibbs.GibbsConfig(memory=1, n_iter=10, n_par=1, burn_in=0)
        view = sic.stage_view(sic.SicPlan(1, 4), 1, chan.levels[[[0, 1, 0, 1]]])
        with pytest.raises(ValueError):
            gibbs.gibbs_apps(aux, np.zeros((1, 4)), view, cfg,
                             np.random.default_rng(0))


class TestGrayLabels:
    def test_is_permutation(self):
        for m in (2, 4, 8, 32):
            labels = gibbs.gray_labels(m)
            assert sorted(labels) == list(range(m))
            inv = gibbs.gray_to_index(m)
            assert np.array_equal(inv[labels], np.arange(m))

    def test_adjacent_levels_differ_in_one_bit(self):
        labels = gibbs.gray_labels(8)
        for a, b in zip(labels[:-1], labels[1:]):
            assert bin(a ^ b).count("1") == 1


class TestStationaryDistribution:
    def test_memoryless_binary_total_variation(self):
        """Within 0.02 TV of the closed-form posterior at 2000 sweeps."""
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(2))
        aux = fba.build_aux_channel(chan, memory=0)
        rng = np.random.default_rng(3)
        n = 16
        blk = ch.random_block(chan, n, rng)
        cfg = gibbs.GibbsConfig(memory=0, n_iter=2000, n_par=8, burn_in=25)
        probs = block_apps(aux, blk, sic.SicPlan(1, n), cfg,
                           np.random.default_rng(11))
        post = memoryless_posterior(chan, blk.y)
        tv = 0.5 * np.abs(probs - post).sum(axis=1)
        assert tv.max() < 0.02

    def test_three_symbol_product_posterior(self):
        """Detailed-balance smoke test on a 3-symbol memoryless 4-ary toy."""
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(4), p_tx=4.0)
        aux = fba.build_aux_channel(chan, memory=0)
        rng = np.random.default_rng(5)
        blk = ch.random_block(chan, 3, rng)
        cfg = gibbs.GibbsConfig(memory=0, n_iter=10_000, n_par=4, burn_in=100)
        probs = block_apps(aux, blk, sic.SicPlan(1, 3), cfg,
                           np.random.default_rng(13))
        post = memoryless_posterior(chan, blk.y)
        tv = 0.5 * np.abs(probs - post).sum(axis=1)
        assert tv.max() < 0.02

    def test_noiseless_consistent_sequence_locks(self):
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(2), noise=1e-4)
        aux = fba.build_aux_channel(chan, memory=0)
        rng = np.random.default_rng(7)
        n = 8
        x = ch.draw_symbols(chan, n, rng)
        import dataclasses
        clean = dataclasses.replace(
            chan, config=dataclasses.replace(chan.config, noise_variance=0.0))
        blk = ch.simulate_block(clean, x)
        cfg = gibbs.GibbsConfig(memory=0, n_iter=300, n_par=4, burn_in=25)
        probs = block_apps(aux, blk, sic.SicPlan(1, n), cfg,
                           np.random.default_rng(17))
        truth = chan.symbol_indices(blk.x)
        assert np.all(np.argmax(probs, axis=1) == truth)
        assert probs[np.arange(n), truth].min() > 0.99

    def test_pinned_positions_are_never_resampled(self):
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(2))
        g = ch.FirFilter(taps=np.array([0.4, 1.0, 0.3]), rate=1)
        import dataclasses
        chan = dataclasses.replace(chan, g=g)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(19)
        n, n_par, n_iter, burn_in = 8, 2, 60, 10
        blk = ch.random_block(chan, n, rng)
        truth = chan.symbol_indices(blk.x)
        unknown = sic.SicPlan(2, n).stage_positions(2)
        known = sic.SicPlan(2, n).known_positions(2)
        chain_rngs = np.random.default_rng(23).spawn(n_par)
        states = np.tile(truth, (n_par, 1))
        states[:, unknown] = 0
        counts = gibbs._sweep_chains(aux, blk.y[None], unknown, states,
                                     chain_rngs, n_iter, burn_in)[0]
        kept = (n_iter - burn_in) * n_par
        assert np.all(counts[known, truth[known]] == kept)
        assert np.all(counts.sum(axis=1) == kept)

    def test_with_memory_matches_exact_fba_loosely(self):
        """On a short ISI block the sampler tracks the exact posterior."""
        cfg_ch = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                                  nonlinearity=ch.Identity(), noise_variance=1.0)
        chan = ch.make_channel(
            cfg_ch, g=ch.FirFilter(taps=np.array([0.4, 1.0, 0.3]), rate=1))
        chan = chan.with_transmit_power_db(3.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(29)
        n = 10
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(sic.SicPlan(1, n), 1, blk.x[None])
        exact = fba.fba_apps(aux, blk.y[None], view)
        cfg = gibbs.GibbsConfig(memory=2, n_iter=4000, n_par=8, burn_in=50)
        app = gibbs.gibbs_apps(aux, blk.y[None], view, cfg,
                               np.random.default_rng(31))
        tv = 0.5 * np.abs(app.probs - exact.probs).sum(axis=2)
        assert tv.max() < 0.05


class TestChainIndependence:
    def test_serial_equals_lockstep(self):
        """Identical counts whether chains run batched or one at a time."""
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(4), p_tx=2.0)
        aux = fba.build_aux_channel(chan, memory=0)
        rng = np.random.default_rng(37)
        n = 6
        blk = ch.random_block(chan, n, rng)
        n_par, n_iter, burn = 4, 80, 10

        def draws(seed):
            chain_rngs = np.random.default_rng(seed).spawn(n_par)
            states = np.array([crng.integers(0, 4, size=n) for crng in chain_rngs])
            return states, chain_rngs

        unknown = np.arange(n)
        states, chain_rngs = draws(99)
        batched = gibbs._sweep_chains(aux, blk.y[None], unknown, states,
                                      chain_rngs, n_iter, burn)
        states, chain_rngs = draws(99)
        serial = np.zeros_like(batched)
        for c in range(n_par):
            serial += gibbs._sweep_chains(aux, blk.y[None], unknown,
                                          states[c:c + 1], chain_rngs[c:c + 1],
                                          n_iter, burn)
        assert np.array_equal(batched, serial)


class TestBatchedStage:
    """A whole stage in one call; that it equals its one-block calls is
    checked for every detector in tests/test_rates.py."""

    def make(self):
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(4), p_tx=2.0)
        import dataclasses
        chan = dataclasses.replace(
            chan, g=ch.FirFilter(taps=np.array([0.3, 1.0, 0.2]), rate=1))
        aux = fba.build_aux_channel(chan, memory=2, build_table=False)
        return aux, chan, gibbs.GibbsConfig(memory=2, n_iter=6, n_par=3,
                                            burn_in=1)

    def test_counter_sums_the_blocks(self):
        aux, chan, cfg = self.make()
        n = 12
        rng = np.random.default_rng(53)
        x, y = stacked([ch.random_block(chan, n, rng) for _ in range(3)])
        counter = MultCounter()
        gibbs.gibbs_apps(aux, y, sic.stage_view(sic.SicPlan(1, n), 1, x), cfg,
                         np.random.default_rng(59), counter=counter)
        assert counter.total == pytest.approx(
            3 * gibbs.count_gs_multiplications(aux, cfg, 2, n) * n)


class TestChainSplit:
    """Each block's chains are cut into one contiguous group per CPU, and
    the groups sweep in forked workers; APPs and tallies do not change.
    The test calls are tiny, so they lower FORK_UPDATES to be split."""

    def run(self, monkeypatch, cpus, n_blk, fork_updates=0):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        monkeypatch.setattr(gibbs, "FORK_UPDATES", fork_updates)
        aux, chan, cfg = TestBatchedStage().make()
        n = 12
        rng = np.random.default_rng(71)
        x, y = stacked([ch.random_block(chan, n, rng) for _ in range(n_blk)])
        view = sic.stage_view(sic.SicPlan(2, n), 2, x)
        counter = MultCounter()
        [app], processes = parallel.parallel_map(
            lambda _: gibbs.gibbs_apps(aux, y, view, cfg,
                                       np.random.default_rng(73),
                                       counter=counter), [0])
        return app, counter, processes

    @pytest.mark.parametrize("n_blk", [1, 3])
    def test_split_equals_one_process(self, monkeypatch, n_blk):
        one, one_counter, one_processes = self.run(monkeypatch, 1, n_blk)
        two, two_counter, two_processes = self.run(monkeypatch, 2, n_blk)
        assert (one_processes, two_processes) == (1, 2)
        assert one.probs.shape[0] == two.probs.shape[0] == n_blk
        assert np.array_equal(one.probs, two.probs)
        assert np.array_equal(one.probs, two.probs)
        assert two_counter.by_kind == one_counter.by_kind
        assert two_counter.total == one_counter.total > 0

    def test_slices_below_fork_updates_stay_in_one_process(self, monkeypatch):
        # 3 blocks x 3 chains x 6 unknown positions x 2 bits x 6 sweeps
        updates = 3 * 3 * 6 * 2 * 6
        split, _, split_processes = self.run(monkeypatch, 2, 3, updates)
        serial, _, serial_processes = self.run(monkeypatch, 2, 3, updates + 1)
        assert (split_processes, serial_processes) == (2, 1)
        assert np.array_equal(split.probs, serial.probs)

    @pytest.mark.parametrize("where", ["worker", "own share"])
    def test_failure_in_a_group_is_raised_and_children_reaped(
            self, monkeypatch, where):
        caller = os.getpid()
        sweep_chains = gibbs._sweep_chains

        def failing(*args, **kwargs):
            if (os.getpid() != caller) == (where == "worker"):
                raise FloatingPointError(f"overflow in the {where}")
            return sweep_chains(*args, **kwargs)

        monkeypatch.setattr(gibbs, "_sweep_chains", failing)
        with pytest.raises(FloatingPointError, match=where):
            self.run(monkeypatch, 2, 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestColourSteps:
    """One colour step resamples conditionally independent positions at
    once, so the kernel equals a serial scan in colour order whatever
    STEP_ROWS and SLICE_BYTES are."""

    def make(self, m_symbols, memory):
        cfg_ch = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(m_symbols),
                                  n_os=2, n_sim=2, nonlinearity=ch.SquareLaw(),
                                  noise_variance=1.0)
        chan = ch.make_channel(cfg_ch, k_g=5).with_transmit_power_db(6.0)
        aux = fba.build_aux_channel(chan, memory=memory, build_table=False)
        return aux, chan, gibbs.GibbsConfig(memory=memory, n_iter=4, n_par=3,
                                            burn_in=1)

    def run(self, monkeypatch, aux, cfg, y, view, seed, step_rows,
            slice_bytes):
        rng = np.random.default_rng(seed)
        with monkeypatch.context() as m:
            m.setattr(gibbs, "STEP_ROWS", step_rows)
            m.setattr(apps, "SLICE_BYTES", slice_bytes)
            result = gibbs.gibbs_apps(aux, y, view, cfg, rng)
            chain_rngs = np.random.default_rng(seed).spawn(cfg.n_par)
            states = np.array([crng.integers(0, aux.m_symbols, size=12)
                               for crng in chain_rngs])
            counts = gibbs._sweep_chains(
                aux, y[:1], np.arange(12), states, chain_rngs, cfg.n_iter,
                cfg.burn_in)
        return result, counts, rng.random()

    @pytest.mark.parametrize("memory", range(5))
    @pytest.mark.parametrize("m_symbols", [2, 4, 8])
    def test_independent_of_step_and_slice_size(self, monkeypatch, m_symbols,
                                                memory):
        aux, chan, cfg = self.make(m_symbols, memory)
        rng = np.random.default_rng(100 + 10 * m_symbols + memory)
        x, y = stacked([ch.random_block(chan, 12, rng) for _ in range(3)])
        for n_stages in (1, 2, 3, 4):
            plan = sic.SicPlan(n_stages, 12)
            s = n_stages
            view = sic.stage_view(plan, s, x)
            ref_app, ref_counts, ref_next = self.run(
                monkeypatch, aux, cfg, y, view, s, gibbs.STEP_ROWS,
                apps.SLICE_BYTES)
            # one site per step (the serial scan), a few, a whole group
            for step_rows in (1, 64, 1 << 40):
                for slice_bytes in (1, apps.SLICE_BYTES):
                    got_app, counts, nxt = self.run(
                        monkeypatch, aux, cfg, y, view, s, step_rows,
                        slice_bytes)
                    assert np.array_equal(counts, ref_counts)
                    assert nxt == ref_next
                    assert np.array_equal(got_app.probs, ref_app.probs)
                    assert np.array_equal(got_app.probs, ref_app.probs)

    @pytest.mark.parametrize("memory", range(5))
    @pytest.mark.parametrize("step_rows", [1, 64, gibbs.STEP_ROWS, 1 << 40])
    def test_steps_are_independent_and_cover_each_position_once(
            self, monkeypatch, step_rows, memory):
        aux, chan, _ = self.make(4, memory)
        monkeypatch.setattr(gibbs, "STEP_ROWS", step_rows)
        n = 24
        ys = np.zeros((2, aux.n_os * n))
        for n_stages in (1, 2, 3):
            for s in range(1, n_stages + 1):
                pinned = np.zeros(n, dtype=bool)
                pinned[np.arange(n) % n_stages < s - 1] = True
                unknown = np.flatnonzero(~pinned)
                steps = gibbs._colour_steps(aux, ys, unknown, n_chains=6)
                visited = np.concatenate([ps for _, ps, *_ in steps])
                assert np.array_equal(np.sort(visited), unknown)
                colours = [ps % (memory + 1) for _, ps, *_ in steps]
                for (ks, ps, *_), colour in zip(steps, colours):
                    assert np.array_equal(unknown[ks], ps)
                    assert np.all(colour == colour[0])
                    gaps = np.abs(ps[:, None] - ps[None, :])
                    assert np.all(gaps[~np.eye(len(ps), dtype=bool)] > memory)
                # colour order
                firsts = [c[0] for c in colours]
                assert firsts == sorted(firsts)


class TestStallingRecord:
    def test_high_snr_quality_gap_recorded(self, capsys):
        """At high power on a dispersive square-law channel the sampler's
        cross-entropy degrades relative to the exact trellis detector.
        Recorded for inspection, not asserted: stalling severity varies."""
        cfg_ch = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2,
                                  n_sim=2, nonlinearity=ch.SquareLaw(),
                                  noise_variance=1.0,
                                  precoding="differential-phase")
        chan = ch.make_channel(cfg_ch, k_g=7).with_transmit_power_db(14.0)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        rng = np.random.default_rng(71)
        n = 24
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(sic.SicPlan(2, n), 2, blk.x[None])
        exact = fba.fba_apps(aux, blk.y[None], view)
        cfg = gibbs.GibbsConfig(memory=chan.memory, n_iter=150, n_par=8,
                                burn_in=25)
        approx = gibbs.gibbs_apps(aux, blk.y[None], view, cfg,
                                  np.random.default_rng(72))
        truth = chan.symbol_indices(blk.x[view.targets])[None]
        ce_exact = -np.mean(exact.log2_prob_of(truth))
        ce_gibbs = -np.mean(approx.log2_prob_of(truth))
        print(f"high-power cross-entropy: trellis {ce_exact:.3f} bits, "
              f"sampler {ce_gibbs:.3f} bits (gap {ce_gibbs - ce_exact:+.3f})")
        assert np.isfinite(ce_gibbs)

    def test_full_scale_sampler_cost_recorded(self):
        """Multiplications per APP at the 32-ary operating point (memory 21,
        5 bits, 125 sweeps, 64 chains), computed from the exact closed form
        that the instrumented runs validate; no table is materialized."""
        cfg_ch = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(32), n_os=2,
                                  n_sim=2, nonlinearity=ch.SquareLaw(),
                                  noise_variance=1.0)
        chan = ch.make_channel(cfg_ch, k_g=303)
        aux = fba.build_aux_channel(chan, memory=21, build_table=False)
        assert aux.mu_table is None
        cfg = gibbs.GibbsConfig(memory=21, n_iter=125, n_par=64, burn_in=25)
        count = gibbs.count_gs_multiplications(aux, cfg, 5, n=1000)
        print(f"sampler cost at the 32-ary operating point: "
              f"{count:.3e} multiplications per APP")
        assert count > 0


class TestCounting:
    def make(self):
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(4), p_tx=2.0)
        import dataclasses
        chan = dataclasses.replace(
            chan, g=ch.FirFilter(taps=np.array([0.3, 1.0, 0.2]), rate=1))
        return fba.build_aux_channel(chan, memory=2), chan

    def test_doubling_chains_doubles_count(self):
        aux, _ = self.make()
        c1 = gibbs.count_gs_multiplications(
            aux, gibbs.GibbsConfig(2, 50, 4, 5), 2, 32)
        c2 = gibbs.count_gs_multiplications(
            aux, gibbs.GibbsConfig(2, 50, 8, 5), 2, 32)
        assert c2 == 2 * c1

    def test_doubling_sweeps_doubles_count(self):
        aux, _ = self.make()
        c1 = gibbs.count_gs_multiplications(
            aux, gibbs.GibbsConfig(2, 50, 4, 5), 2, 32)
        c2 = gibbs.count_gs_multiplications(
            aux, gibbs.GibbsConfig(2, 100, 4, 5), 2, 32)
        assert c2 == 2 * c1

    def test_instrumented_run_matches_formula(self):
        aux, chan = self.make()
        rng = np.random.default_rng(41)
        n = 12
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(sic.SicPlan(1, n), 1, blk.x[None])
        cfg = gibbs.GibbsConfig(memory=2, n_iter=6, n_par=3, burn_in=1)
        counter = MultCounter()
        gibbs.gibbs_apps(aux, blk.y[None], view, cfg, np.random.default_rng(43),
                         counter=counter)
        assert counter.total == pytest.approx(
            gibbs.count_gs_multiplications(aux, cfg, 2, n) * n)
