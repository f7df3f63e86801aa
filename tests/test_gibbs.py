"""Gibbs sampler: stationary distribution against closed-form posteriors,
chain independence, whole-stage calls, chains split across processes,
pinning, multiplication accounting, and the frozen chain-major kernel as a
reference."""

import os
import tracemalloc

import numpy as np
import pytest

from nlsic import channel as ch
from nlsic import apps, fba, gibbs, parallel, rates, sic
from nlsic.apps import MultCounter


def memoryless_channel(alphabet, p_tx=1.5, noise=1.0):
    cfg = ch.ChannelConfig(alphabet=alphabet, n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=noise)
    chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0])))
    return chan.with_transmit_power(p_tx)


def block_apps(aux, blk, cfg, rng):
    """Sampled stage-1 APPs of a one-block batch, (N, M)."""
    view = sic.stage_view(sic.SicPlan(1, blk.x.shape[1]), 1, blk.x)
    return gibbs.gibbs_apps(aux, blk.y, view, cfg, rng).probs[0]


def unexecuted_multiplications(aux, cfg, n):
    """Multiplications per block that count_gs_multiplications' per-bit,
    two-candidate convention counts and the kernel does not execute, with
    every position of an n-symbol block unknown, no colour step holding a
    lone window, and a one-tap receiver whose tap is 1.0: per chain and
    sweep, the kept candidate of each bit after a site's first (m_bits - 1
    of its 2 m_bits evaluations), and the receiver product of each window
    the m_bits + 1 evaluations run (n_os * nz)."""
    assert len(aux.chan.h) == 1 and aux.chan.h.taps[0] == 1.0
    nz = aux._s_map.shape[0]
    m_bits = int(np.log2(aux.m_symbols))
    visits = int(gibbs._chunk_windows(aux, np.arange(n), n)[1].sum())
    per_window = (nz * aux.window
                  + nz * aux.chan.config.nonlinearity.mults_per_sample
                  + aux.n_os * nz + aux.n_os)
    evaluation = visits * per_window + n
    receiver = (m_bits + 1) * visits * aux.n_os * nz
    return cfg.n_par * cfg.n_iter * ((m_bits - 1) * evaluation + receiver)


def executed_multiplications(aux, cfg, n):
    """The kernel's MultCounter tally for one such block, in closed form."""
    convention = round(gibbs.count_gs_multiplications(aux, cfg, n) * n)
    return convention - unexecuted_multiplications(aux, cfg, n)


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
        probs = block_apps(aux, blk, cfg, np.random.default_rng(11))
        post = memoryless_posterior(chan, blk.y[0])
        tv = 0.5 * np.abs(probs - post).sum(axis=1)
        assert tv.max() < 0.02

    def test_three_symbol_product_posterior(self):
        """Detailed-balance smoke test on a 3-symbol memoryless 4-ary toy."""
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(4), p_tx=4.0)
        aux = fba.build_aux_channel(chan, memory=0)
        rng = np.random.default_rng(5)
        blk = ch.random_block(chan, 3, rng)
        cfg = gibbs.GibbsConfig(memory=0, n_iter=10_000, n_par=4, burn_in=100)
        probs = block_apps(aux, blk, cfg, np.random.default_rng(13))
        post = memoryless_posterior(chan, blk.y[0])
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
        blk = ch.simulate_batch(clean, x[None])
        cfg = gibbs.GibbsConfig(memory=0, n_iter=300, n_par=4, burn_in=25)
        probs = block_apps(aux, blk, cfg, np.random.default_rng(17))
        truth = chan.symbol_indices(blk.x[0])
        assert np.all(np.argmax(probs, axis=1) == truth)
        assert probs[np.arange(n), truth].min() > 0.99

    def test_one_infinite_metric_decides_the_bit(self):
        """Noiseless observations at a power where the wrong candidate's
        squared distance, (2e154)^2, overflows to inf: the bit is certain,
        not a numeric failure, and every chain locks on the truth."""
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(2), p_tx=1e308)
        aux = fba.build_aux_channel(chan, memory=0)
        truth = np.array([0, 1, 1, 0, 1, 0])
        x = chan.levels[truth][None]
        view = sic.stage_view(sic.SicPlan(1, len(truth)), 1, x)
        cfg = gibbs.GibbsConfig(memory=0, n_iter=5, n_par=2, burn_in=1)
        probs = gibbs.gibbs_apps(aux, x, view, cfg,
                                 np.random.default_rng(3)).probs[0]
        # (8 kept draws + 1) / (8 + 2) on the truth
        assert np.all(probs[np.arange(len(truth)), truth] == 0.9)

    def test_pinned_positions_are_never_resampled(self):
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(2))
        g = ch.FirFilter(taps=np.array([0.4, 1.0, 0.3]))
        import dataclasses
        chan = dataclasses.replace(chan, g=g)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(19)
        n, n_par, n_iter, burn_in = 8, 2, 60, 10
        blk = ch.random_block(chan, n, rng)
        truth = chan.symbol_indices(blk.x[0])
        unknown = sic.SicPlan(2, n).stage_positions(2)
        known = sic.SicPlan(2, n).known_positions(2)
        chain_rngs = np.random.default_rng(23).spawn(n_par)
        states = np.tile(truth, (n_par, 1))
        states[:, unknown] = 0
        counts = gibbs._sweep_chains(aux, blk.y, unknown, states.T,
                                     chain_rngs, n_iter, burn_in)[0]
        kept = (n_iter - burn_in) * n_par
        assert np.all(counts[known, truth[known]] == kept)
        assert np.all(counts.sum(axis=1) == kept)

    def test_with_memory_matches_exact_fba_loosely(self):
        """On a short ISI block the sampler tracks the exact posterior."""
        cfg_ch = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                                  nonlinearity=ch.Identity(), noise_variance=1.0)
        chan = ch.make_channel(
            cfg_ch, g=ch.FirFilter(taps=np.array([0.4, 1.0, 0.3])))
        chan = chan.with_transmit_power_db(3.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(29)
        n = 10
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(sic.SicPlan(1, n), 1, blk.x)
        exact = fba.fba_point_apps(aux, [blk.y], [view])[0]
        cfg = gibbs.GibbsConfig(memory=2, n_iter=4000, n_par=8, burn_in=50)
        app = gibbs.gibbs_apps(aux, blk.y, view, cfg,
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
        batched = gibbs._sweep_chains(aux, blk.y, unknown, states.T,
                                      chain_rngs, n_iter, burn)
        states, chain_rngs = draws(99)
        serial = np.zeros_like(batched)
        for c in range(n_par):
            serial += gibbs._sweep_chains(aux, blk.y, unknown,
                                          states[c:c + 1].T, chain_rngs[c:c + 1],
                                          n_iter, burn)
        assert np.array_equal(batched, serial)


class TestBatchedStage:
    """A whole stage in one call; that it equals its one-block calls is
    checked for every detector in tests/test_rates.py."""

    def make(self):
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(4), p_tx=2.0)
        import dataclasses
        chan = dataclasses.replace(
            chan, g=ch.FirFilter(taps=np.array([0.3, 1.0, 0.2])))
        aux = fba.build_aux_channel(chan, memory=2, build_table=False)
        return aux, chan, gibbs.GibbsConfig(memory=2, n_iter=6, n_par=3,
                                            burn_in=1)

    def test_counter_sums_the_blocks(self):
        aux, chan, cfg = self.make()
        n = 12
        rng = np.random.default_rng(53)
        blocks = rates.simulate_eval_blocks(chan, 3, n, rng)
        view = sic.stage_view(sic.SicPlan(1, n), 1, blocks.x)
        counter = MultCounter()
        gibbs.gibbs_apps(aux, blocks.y, view, cfg, np.random.default_rng(59),
                         counter=counter)
        assert counter.total == 3 * executed_multiplications(aux, cfg, n)


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
        blocks = rates.simulate_eval_blocks(chan, n_blk, n, rng)
        view = sic.stage_view(sic.SicPlan(2, n), 2, blocks.x)
        counter = MultCounter()
        [app], processes = parallel.parallel_map(
            lambda _: gibbs.gibbs_apps(aux, blocks.y, view, cfg,
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


class TestByteEstimate:
    """The per-block and per-call byte formulas that size the sampler's
    block slices state what a call holds: per block the chains' state, the
    site-major uniforms, the counts, the APPs and the observation chunks;
    per call the uniforms' scratch rows, the colour steps' index arrays and
    one step's windows, products and metrics."""

    def test_formula_matches_the_peak_of_one_call(self, monkeypatch):
        """At n = 2,000 on the gibbs-long channel with 8 chains per block, a
        call over two blocks, in one slice, peaks between its formula and
        1.25 times it."""
        cfg_ch = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2,
                                  n_sim=2, nonlinearity=ch.SquareLaw(),
                                  noise_variance=1.0,
                                  precoding="differential-phase")
        chan = ch.make_channel(cfg_ch, k_g=7).with_transmit_power_db(4.0)
        aux = fba.build_aux_channel(chan, memory=3, build_table=False)
        cfg = gibbs.GibbsConfig(memory=3, n_iter=2, n_par=8, burn_in=1)
        n = 2000
        blocks = rates.simulate_eval_blocks(chan, 2, n, np.random.default_rng(3))
        view = sic.stage_view(sic.SicPlan(1, n), 1, blocks.x)
        seen = []

        def spy(n_blocks, bytes_per_block, shared):
            seen.append((bytes_per_block, shared))
            return apps.block_slices(n_blocks, bytes_per_block, shared)
        monkeypatch.setattr(gibbs, "block_slices", spy)
        monkeypatch.setattr(gibbs, "FORK_UPDATES", 1 << 62)
        tracemalloc.start()
        try:
            gibbs.gibbs_apps(aux, blocks.y, view, cfg, np.random.default_rng(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        [(per_block, shared)] = seen
        estimate = len(blocks) * per_block + shared
        assert estimate <= apps.SLICE_BYTES
        assert estimate <= peak <= 1.25 * estimate, (peak, estimate)


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
                aux, y[:1], np.arange(12), states.T, chain_rngs, cfg.n_iter,
                cfg.burn_in)
        return result, counts, rng.random()

    @pytest.mark.parametrize("memory", range(5))
    @pytest.mark.parametrize("m_symbols", [2, 4, 8])
    def test_independent_of_step_and_slice_size(self, monkeypatch, m_symbols,
                                                memory):
        aux, chan, cfg = self.make(m_symbols, memory)
        rng = np.random.default_rng(100 + 10 * m_symbols + memory)
        blocks = rates.simulate_eval_blocks(chan, 3, 12, rng)
        for n_stages in (1, 2, 3, 4):
            plan = sic.SicPlan(n_stages, 12)
            s = n_stages
            view = sic.stage_view(plan, s, blocks.x)
            ref_app, ref_counts, ref_next = self.run(
                monkeypatch, aux, cfg, blocks.y, view, s, gibbs.STEP_ROWS,
                apps.SLICE_BYTES)
            # one site per step (the serial scan), a few, a whole group
            for step_rows in (1, 64, 1 << 40):
                for slice_bytes in (1, apps.SLICE_BYTES):
                    got_app, counts, nxt = self.run(
                        monkeypatch, aux, cfg, blocks.y, view, s, step_rows,
                        slice_bytes)
                    assert np.array_equal(counts, ref_counts)
                    assert nxt == ref_next
                    assert np.array_equal(got_app.probs, ref_app.probs)
                    assert np.array_equal(got_app.probs, ref_app.probs)

    @pytest.mark.parametrize("memory", range(5))
    @pytest.mark.parametrize("step_rows",
                             [1, 64, 4096, gibbs.STEP_ROWS, 1 << 40])
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


def rowmajor_means(aux, contexts):
    """Chunk means of (C, memory+1) windows, one window per row, (C, n_os)."""
    s = contexts @ aux._s_map.T
    return aux.chan.config.nonlinearity(s) @ aux._h_map.T


def reference_chunk_windows(aux, pos, n):
    """Chunks (1-based) whose symbol window contains 0-based position `pos`,
    and the window's symbol positions for mean evaluation."""
    kappa = pos + 1
    lo = max(kappa - aux.future, 1)
    hi = min(kappa + aux.memory - aux.future, n)
    chunks = np.arange(lo, hi + 1)
    # window of chunk q covers positions q - past .. q + future, oldest first
    wpos = chunks[:, None] - (aux.memory - aux.future) + np.arange(aux.window)[None, :]
    return chunks, wpos - 1  # symbol positions 0-based, may be out of range


def reference_colour_steps(aux, ys, unknown, n_chains):
    """The chain-major colour steps: indices into `unknown`, positions, the
    clipped window positions, the window slots outside the block, the flat
    offsets of the target slots and the observation chunks,
    (n_blk, 1, sites, n_q * n_os)."""
    n = ys.shape[1] // aux.n_os
    groups = {}
    for k, pos in enumerate(unknown):
        chunks, wpos = reference_chunk_windows(aux, int(pos), n)
        groups.setdefault((pos % aux.window, len(chunks)), []).append(
            (k, pos, chunks, wpos))
    steps = []
    for (_, n_q), sites in sorted(groups.items()):
        per_step = max(1, gibbs.STEP_ROWS // (2 * n_chains * n_q))
        for i in range(0, len(sites), per_step):
            ks, ps, chunks, wpos = map(np.array, zip(*sites[i:i + per_step]))
            rows = (chunks[..., None] - 1) * aux.n_os + np.arange(aux.n_os)
            tgt = np.flatnonzero(wpos == ps[:, None, None]).reshape(len(ps), n_q)
            steps.append((ks, ps, np.clip(wpos, 0, n - 1),
                          (wpos < 0) | (wpos >= n), tgt,
                          ys[:, None, rows.reshape(len(ps), -1)]))
    return steps


def reference_sweep_chains(aux, ys, unknown, states, chain_rngs, n_iter,
                           burn_in, counter=None):
    """The chain-major kernel: (C, n) states, one row of context per
    (candidate, chain, chunk), row-major means and einsum metrics."""
    n_blk = len(ys)
    n_chains, n = states.shape
    n_par = n_chains // n_blk
    m_sym = aux.m_symbols
    m_bits = int(np.log2(m_sym))
    inv2s = 1.0 / (2.0 * aux.sigma2)
    gray = gibbs.gray_labels(m_sym)
    ungray = gibbs.gray_to_index(m_sym)
    label_level = aux.levels[ungray]
    steps = reference_colour_steps(aux, ys, unknown, n_chains)
    values = aux.levels[states]
    bins = ((np.arange(n_chains)[:, None] // n_par) * n + np.arange(n)) * m_sym
    counts = np.zeros(n_blk * n * m_sym, dtype=np.int64)
    uniforms = np.empty((n_chains, len(unknown), m_bits))
    for sweep in range(n_iter):
        for crng, u in zip(chain_rngs, uniforms):
            crng.random(out=u)
        for ks, ps, safe, outside, tgt, y_sites in steps:
            ctx = values[:, safe]
            ctx[:, outside] = 0.0
            pair = np.stack([ctx, ctx]).reshape(2, n_chains, -1)
            cur_label = gray[states[:, ps]]
            for b in range(m_bits):
                labs = np.stack([cur_label & ~(1 << b), cur_label | (1 << b)])
                pair[:, :, tgt] = label_level[labs][..., None]
                mu = rowmajor_means(aux, pair.reshape(-1, aux.window))
                diff = y_sites - mu.reshape((2, n_blk, n_par) + y_sites.shape[2:])
                metric = np.einsum("...k,...k->...", diff, diff).reshape(
                    2, n_chains, -1) * inv2s
                p_one = 0.5 * (1.0 - np.tanh(0.5 * (metric[1] - metric[0])))
                cur_label = np.where(uniforms[:, ks, b] < p_one, labs[1], labs[0])
            states[:, ps] = ungray[cur_label]
            values[:, ps] = aux.levels[states[:, ps]]
        if sweep >= burn_in:
            counts += np.bincount((bins + states).ravel(), minlength=counts.size)
    return counts.reshape(n_blk, n, m_sym)


def reference_position_major(aux, ys, unknown, digits, *args, **kwargs):
    """reference_sweep_chains on the kernel's position-major (n, C) digits."""
    return reference_sweep_chains(aux, ys, unknown, digits.T, *args, **kwargs)


# (nonlinearity, n_sim, n_os, k_g, k_h)
ORACLE_CHANNELS = {
    "square-law": (ch.SquareLaw(), 2, 2, 7, 1),
    "identity-n_os-1": (ch.Identity(), 2, 1, 5, 1),
    "square-law-k_h-3": (ch.SquareLaw(), 2, 2, 7, 3),
}


def oracle_channel(m_symbols, name):
    nl, n_sim, n_os, k_g, k_h = ORACLE_CHANNELS[name]
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(m_symbols),
                           n_os=n_os, n_sim=n_sim, nonlinearity=nl,
                           noise_variance=1.0)
    return ch.make_channel(cfg, k_g=k_g, k_h=k_h).with_transmit_power_db(6.0)


class TestKernelOracle:
    """The position-major kernel equals the frozen chain-major reference:
    counts of direct sweeps and the APPs of whole stages, over 2-, 4- and
    8-ASK, three channels, memories 0-4, the first and last of three SIC
    stages, and one site per step, the default step and whole colours;
    one block of one chain, whose lone windows are evaluated beside a copy
    of themselves, at one site per step and the default step."""

    N, STAGES = 12, 3

    def check(self, monkeypatch, m_symbols, channel, memory, n_blk, n_par,
              all_step_rows):
        chan = oracle_channel(m_symbols, channel)
        aux = fba.build_aux_channel(chan, memory=memory, build_table=False)
        cfg = gibbs.GibbsConfig(memory=memory, n_iter=4, n_par=n_par,
                                burn_in=1)
        rng = np.random.default_rng(1000 * m_symbols + memory)
        blocks = rates.simulate_eval_blocks(chan, n_blk, self.N, rng)
        plan = sic.SicPlan(self.STAGES, self.N)
        for s in (1, self.STAGES):
            view = sic.stage_view(plan, s, blocks.x)
            unknown = np.delete(np.arange(self.N), view.known_idx)
            truth = chan.symbol_indices(blocks.x)
            for step_rows in all_step_rows:
                monkeypatch.setattr(gibbs, "STEP_ROWS", step_rows)
                counts, apps_ = [], []
                for sweep in (gibbs._sweep_chains, reference_position_major):
                    chain_rngs = np.random.default_rng(s).spawn(n_blk * n_par)
                    states = np.repeat(truth, n_par, axis=0)
                    for c, crng in enumerate(chain_rngs):
                        states[c, unknown] = crng.integers(
                            0, m_symbols, size=len(unknown))
                    counts.append(sweep(aux, blocks.y, unknown, states.T,
                                        chain_rngs, cfg.n_iter, cfg.burn_in))
                    monkeypatch.setattr(gibbs, "_sweep_chains", sweep)
                    apps_.append(gibbs.gibbs_apps(
                        aux, blocks.y, view, cfg,
                        np.random.default_rng(s)).probs)
                monkeypatch.undo()
                assert np.array_equal(counts[0], counts[1])
                assert np.array_equal(apps_[0], apps_[1])

    @pytest.mark.parametrize("memory", range(5))
    @pytest.mark.parametrize("channel", sorted(ORACLE_CHANNELS))
    @pytest.mark.parametrize("m_symbols", [2, 4, 8])
    def test_equal_to_reference(self, monkeypatch, m_symbols, channel,
                                memory):
        self.check(monkeypatch, m_symbols, channel, memory, n_blk=2, n_par=3,
                   all_step_rows=(1, gibbs.STEP_ROWS, 1 << 40))

    @pytest.mark.parametrize("memory", range(5))
    @pytest.mark.parametrize("channel", sorted(ORACLE_CHANNELS))
    @pytest.mark.parametrize("m_symbols", [2, 4, 8])
    def test_one_chain_equal_to_reference(self, monkeypatch, m_symbols,
                                          channel, memory):
        self.check(monkeypatch, m_symbols, channel, memory, n_blk=1, n_par=1,
                   all_step_rows=(1, gibbs.STEP_ROWS))

    @pytest.mark.parametrize("memory", range(5))
    @pytest.mark.parametrize("shape", [(2, 2, 7, 1), (2, 2, 7, 3), (4, 2, 9, 3),
                                       (2, 2, 5, 5), (4, 4, 9, 1)])
    @pytest.mark.parametrize("nl", [ch.SquareLaw(), ch.Identity()],
                             ids=["square-law", "identity"])
    def test_means_equal_row_major(self, nl, shape, memory):
        """Feature-major means equal the row-major nl(c @ S.T) @ H.T bit for
        bit with two or more samples per symbol, from one window to more
        than a colour step holds."""
        n_sim, n_os, k_g, k_h = shape
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=n_os,
                               n_sim=n_sim, nonlinearity=nl,
                               noise_variance=1.0)
        chan = ch.make_channel(cfg, k_g=k_g, k_h=k_h).with_transmit_power_db(6.0)
        aux = fba.build_aux_channel(chan, memory=memory, build_table=False)
        rng = np.random.default_rng(memory)
        for n_ctx in (1, 7, 2 * gibbs.STEP_ROWS):
            windows = chan.levels[rng.integers(0, 4, (aux.window, n_ctx))]
            assert np.array_equal(aux.mean_contexts(windows),
                                  rowmajor_means(aux, windows.T).T)


class TestColumnBits:
    """The kernel evaluates a site's kept candidate once and reuses its
    metric, and evaluates the other candidate in a product of another
    width.  That keeps the bits only if mean_contexts gives a window the
    same bits wherever it sits among the columns and however many columns
    there are.  It does from two columns on; a one-column product is the
    exception (numpy hands it to gemv, which rounds otherwise), so the
    kernel never makes one.  The one-row shaping map of a memoryless
    three-tap channel is checked too: its product would go to gemv as well,
    had mean_contexts not given it a zero second row."""

    N_COLUMNS = 2 * gibbs.STEP_ROWS

    def channel(self, name):
        if name == "memoryless-3-tap":
            chan = memoryless_channel(ch.Alphabet.bipolar_ask(4), p_tx=2.0)
            import dataclasses
            return dataclasses.replace(
                chan, g=ch.FirFilter(taps=np.array([0.3, 1.0, 0.2])))
        return oracle_channel(4, name)

    @pytest.mark.parametrize("memory", range(5))
    @pytest.mark.parametrize("channel",
                             sorted(ORACLE_CHANNELS) + ["memoryless-3-tap"])
    def test_independent_of_place_and_count(self, channel, memory):
        chan = self.channel(channel)
        aux = fba.build_aux_channel(chan, memory=memory, build_table=False)
        rng = np.random.default_rng(memory)
        windows = chan.levels[rng.integers(0, 4, (aux.window, self.N_COLUMNS))]
        whole = aux.mean_contexts(windows)
        for count in (2, 3, 4, 5, 7, 8, 9, 63, 1000, gibbs.STEP_ROWS + 1):
            for start in rng.integers(0, self.N_COLUMNS - count, 4):
                part = np.ascontiguousarray(windows[:, start:start + count])
                assert np.array_equal(aux.mean_contexts(part),
                                      whole[:, start:start + count])


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
        view = sic.stage_view(sic.SicPlan(2, n), 2, blk.x)
        exact = fba.fba_point_apps(aux, [blk.y], [view])[0]
        cfg = gibbs.GibbsConfig(memory=chan.memory, n_iter=150, n_par=8,
                                burn_in=25)
        approx = gibbs.gibbs_apps(aux, blk.y, view, cfg,
                                  np.random.default_rng(72))
        truth = chan.symbol_indices(blk.x[:, view.targets])
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
        count = gibbs.count_gs_multiplications(aux, cfg, n=1000)
        print(f"sampler cost at the 32-ary operating point: "
              f"{count:.3e} multiplications per APP")
        assert count > 0


class TestCounting:
    def make(self):
        chan = memoryless_channel(ch.Alphabet.bipolar_ask(4), p_tx=2.0)
        import dataclasses
        chan = dataclasses.replace(
            chan, g=ch.FirFilter(taps=np.array([0.3, 1.0, 0.2])))
        return fba.build_aux_channel(chan, memory=2), chan

    def test_doubling_chains_doubles_count(self):
        aux, _ = self.make()
        c1 = gibbs.count_gs_multiplications(
            aux, gibbs.GibbsConfig(2, 50, 4, 5), 32)
        c2 = gibbs.count_gs_multiplications(
            aux, gibbs.GibbsConfig(2, 50, 8, 5), 32)
        assert c2 == 2 * c1

    def test_doubling_sweeps_doubles_count(self):
        aux, _ = self.make()
        c1 = gibbs.count_gs_multiplications(
            aux, gibbs.GibbsConfig(2, 50, 4, 5), 32)
        c2 = gibbs.count_gs_multiplications(
            aux, gibbs.GibbsConfig(2, 100, 4, 5), 32)
        assert c2 == 2 * c1

    def test_instrumented_run_matches_formula(self):
        aux, chan = self.make()
        rng = np.random.default_rng(41)
        n = 12
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(sic.SicPlan(1, n), 1, blk.x)
        cfg = gibbs.GibbsConfig(memory=2, n_iter=6, n_par=3, burn_in=1)
        counter = MultCounter()
        gibbs.gibbs_apps(aux, blk.y, view, cfg, np.random.default_rng(43),
                         counter=counter)
        # the convention counts both candidates of every bit and the
        # receiver product; the kernel runs neither the kept candidates nor
        # the product of a one-tap receiver
        assert counter.total == executed_multiplications(aux, cfg, n)
        assert counter.total < gibbs.count_gs_multiplications(aux, cfg, n) * n
