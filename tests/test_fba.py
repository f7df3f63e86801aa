"""Forward-backward detector: auxiliary-channel means, exact-posterior
equivalence, pinning, the auxiliary-channel upper bound, and the
multiplication accounting."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from nlsic import channel as ch
from nlsic import apps, fba, rates, sic
from nlsic.apps import MultCounter


def linear_2ask_channel(taps=(0.4, 1.0, 0.3), noise=1.0):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=noise)
    return ch.make_channel(cfg, g=ch.FirFilter(taps=np.asarray(taps, float)))


def sld_2pam_channel(k_g=5, noise=1.0):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.unipolar_pam(2), n_os=2, n_sim=2,
                           nonlinearity=ch.SquareLaw(), noise_variance=noise)
    return ch.make_channel(cfg, k_g=k_g)


def memoryless_binary_channel(p_tx=1.0, noise=1.0):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=noise)
    chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0])))
    return chan.with_transmit_power(p_tx)


def noiseless(chan):
    return dataclasses.replace(
        chan, config=dataclasses.replace(chan.config, noise_variance=0.0))


def block_apps(aux, blocks, plan, s=1):
    """APPs of a batch of blocks at stage s."""
    return fba.fba_point_apps(aux, [blocks.y], [sic.stage_view(plan, s, blocks.x)])[0]


def exhaustive_posteriors(chan, y, n, sigma2, view=None):
    """Joint-posterior oracle: enumerate every symbol sequence, weight by the
    exact Gaussian likelihood of the full observation block, marginalize."""
    m = chan.config.alphabet.size
    clean = noiseless(chan)
    seqs = list(itertools.product(range(m), repeat=n))
    logls = np.full(len(seqs), -np.inf)
    for i, seq in enumerate(seqs):
        xs = chan.levels[list(seq)]
        if view is not None and len(view.known_idx):
            if not np.allclose(xs[view.known_idx], view.known_val[0], atol=1e-12):
                continue
        mean = ch.simulate_batch(clean, xs[None]).y[0]
        logls[i] = -np.sum((y - mean) ** 2) / (2.0 * sigma2)
    w = np.exp(logls - logls.max())
    w /= w.sum()
    post = np.zeros((n, m))
    for weight, seq in zip(w, seqs):
        post[np.arange(n), list(seq)] += weight
    return post


class TestAuxChannel:
    def test_memoryless_square_law_means(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.unipolar_pam(4), n_os=1, n_sim=2,
                               nonlinearity=ch.SquareLaw(), noise_variance=1.0)
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([0.0, 1.0, 0.0])))
        aux = fba.build_aux_channel(chan, memory=0)
        for a in range(4):
            assert aux.mu_table[0, 0, a] == pytest.approx(chan.levels[a] ** 2)

    def test_exact_memory_means_match_simulation(self):
        chan = linear_2ask_channel()
        aux = fba.build_aux_channel(chan, memory=2)
        assert aux.is_exact
        rng = np.random.default_rng(1)
        ctx = chan.levels[rng.integers(0, 2, 3)]
        y = ch.simulate_batch(noiseless(chan), ctx[None]).y[0]
        q = len(ctx) - aux.future            # chunk slot of the newest window
        got = aux.mean_contexts(ctx[:, None])[:, 0]
        assert np.allclose(got, y[aux.n_os * (q - 1):aux.n_os * q], atol=1e-12)

    def test_truncated_memory_is_documented_mismatch(self):
        chan = linear_2ask_channel()
        full = fba.build_aux_channel(chan, memory=2)
        trunc = fba.build_aux_channel(chan, memory=1)
        assert not trunc.is_exact
        # same (state, input) suffix must disagree somewhere with the truth
        diffs = []
        for a in range(2):
            for b in range(2):
                w_full = full.mu_table[:, a * 2 + b, :]      # oldest digit varies
                diffs.append(np.abs(trunc.mu_table[:, b, :] - w_full).max())
        assert max(diffs) > 1e-3

    def test_table_budget(self, monkeypatch):
        chan = sld_2pam_channel()
        monkeypatch.setattr(fba, "TABLE_BUDGET", 4)
        with pytest.raises(ValueError):
            fba.build_aux_channel(chan, memory=2)

    def test_square_law_exact_memory_means(self):
        chan = sld_2pam_channel().with_transmit_power_db(3.0)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        rng = np.random.default_rng(2)
        ctx = chan.levels[rng.integers(0, 2, aux.window)]
        y = ch.simulate_batch(noiseless(chan), ctx[None]).y[0]
        q = aux.window - aux.future
        got = aux.mean_contexts(ctx[:, None])[:, 0]
        assert np.allclose(got, y[aux.n_os * (q - 1):aux.n_os * q], atol=1e-12)

    def test_channel_memory_is_the_exact_span(self):
        """At every (k_g, n_sim, n_os, k_h) of the grid, a window of
        chan.memory symbols gives every chunk's noiseless mean, guard zeros
        at the block edges included, and one symbol less does not.  The taps
        are random, so no tap is zero and the span is the true dependence."""
        # first the points where a sum of per-filter memories, (k-1)//n_sim
        # each, gives too little (1 for 2) and too much (3 for 2)
        grid = [(7, 4, 2, 3), (7, 2, 1, 1)] + [
            g for g in itertools.product((1, 3, 7, 9), (1, 2, 3, 4),
                                         (1, 2, 4), (1, 3, 5))
            if g[1] % g[2] == 0]
        for k_g, n_sim, n_os, k_h in grid:
            rng = np.random.default_rng([k_g, n_sim, n_os, k_h])
            cfg = ch.ChannelConfig(
                alphabet=ch.Alphabet.bipolar_ask(4), n_os=n_os, n_sim=n_sim,
                nonlinearity=ch.SquareLaw() if n_sim > 1 else ch.Identity(),
                noise_variance=0.0)
            chan = ch.make_channel(
                cfg, g=ch.FirFilter(rng.uniform(0.5, 1.5, k_g)),
                h=ch.FirFilter(rng.uniform(0.5, 1.5, k_h)))
            x = ch.draw_symbols(chan, 16, rng)
            y = ch.simulate_batch(chan, x[None]).y[0]

            def chunk_means(memory):
                aux = fba.build_aux_channel(chan, memory, build_table=False)
                # chunk k's window: symbols k-(memory-future)..k+future
                pos = np.arange(len(x))[:, None] - (memory - aux.future) \
                    + np.arange(memory + 1)
                inside = (pos >= 0) & (pos < len(x))
                ctx = np.where(inside, x[np.clip(pos, 0, len(x) - 1)], 0.0)
                return aux.is_exact, aux.mean_contexts(ctx.T).T.reshape(-1)

            point = (k_g, n_sim, n_os, k_h, chan.memory)
            exact, means = chunk_means(chan.memory)
            assert exact, point
            assert np.allclose(means, y, rtol=0, atol=1e-12), point
            if chan.memory > 0:
                exact, means = chunk_means(chan.memory - 1)
                assert not exact, point
                assert not np.allclose(means, y, rtol=0, atol=1e-9), point


class TestMeanOverflow:
    """A chunk sample whose receiver span holds no overflow keeps a finite
    mean when a neighbouring sample of the same chunk overflows to inf:
    the zero taps of the receiver map must not make it 0 * inf = NaN."""

    def aux(self, k_h, memory):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2,
                               n_sim=2, nonlinearity=ch.SquareLaw(),
                               noise_variance=1.0)
        chan = ch.make_channel(cfg, k_g=7, k_h=k_h).with_transmit_power(1e308)
        return fba.build_aux_channel(chan, memory=memory, build_table=False)

    def means(self, aux, window):
        ctx = np.array(window)[:, None]
        with np.errstate(over="ignore"):
            return aux.mean_contexts(ctx)[:, 0], (aux._s_map @ ctx)[:, 0] ** 2

    def test_one_tap_receiver(self):
        """The benchmark channel, one symbol at the top level among guard
        zeros: the receiver takes sample 0 of the squared shaping output as
        it is, 7.68e307, beside an inf."""
        aux = self.aux(k_h=1, memory=3)
        mu, z = self.means(aux, (0.0, 0.0, aux.levels[3], 0.0))
        assert np.isinf(z[1]) and np.isinf(mu[1])
        assert np.isfinite(z[0]) and mu[0] == z[0]
        assert mu[0] == pytest.approx(7.68e307, rel=1e-3)

    def test_three_tap_receiver(self):
        """Sample 0's span holds the inf, sample 1's (fine rows 1-3) does
        not: its mean is its own span's sum."""
        aux = self.aux(k_h=3, memory=1)
        mu, z = self.means(aux, aux.levels[[0, 1]])
        assert np.isinf(z[0]) and np.isfinite(z[1:]).all()
        assert np.isinf(mu[0])
        assert np.isfinite(mu[1])
        assert mu[1] == pytest.approx(aux._h_map[1, 1:] @ z[1:], rel=1e-15)


class TestFbaApp:
    def test_memoryless_binary_closed_form(self):
        """MAP oracle: APP(+r | y) = 1 / (1 + exp(-2 y r / sigma^2))."""
        chan = memoryless_binary_channel(p_tx=2.5)
        aux = fba.build_aux_channel(chan, memory=0)
        r = chan.levels[1]
        rng = np.random.default_rng(3)
        n = 12
        blk = ch.random_block(chan, n, rng)
        app = block_apps(aux, blk, sic.SicPlan(1, n))
        expect = 1.0 / (1.0 + np.exp(-2.0 * blk.y[0] * r))
        assert np.allclose(app.probs[0, :, 1], expect, atol=1e-12)

    @pytest.mark.parametrize("maker,power_db", [
        (linear_2ask_channel, 2.0),
        (sld_2pam_channel, 5.0),
    ])
    def test_exhaustive_posterior_equivalence(self, maker, power_db):
        chan = maker().with_transmit_power_db(power_db)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        rng = np.random.default_rng(5)
        n = 6
        plan = sic.SicPlan(1, n)
        for _ in range(5):
            blk = ch.random_block(chan, n, rng)
            app = block_apps(aux, blk, plan)
            post = exhaustive_posteriors(chan, blk.y[0], n, 1.0)
            assert np.abs(app.probs[0] - post).max() < 1e-9

    def test_exhaustive_posterior_with_pinning(self):
        chan = linear_2ask_channel().with_transmit_power_db(2.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(7)
        n = 6
        plan = sic.SicPlan(2, n)
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(plan, 2, blk.x)
        app = fba.fba_point_apps(aux, [blk.y], [view])[0]
        post = exhaustive_posteriors(chan, blk.y[0], n, 1.0, view=view)
        assert np.abs(app.probs[0] - post[view.targets]).max() < 1e-9

    def test_all_known_but_one_noiseless_point_mass(self):
        chan = linear_2ask_channel(noise=1e-6).with_transmit_power_db(0.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(9)
        n = 7
        x = ch.draw_symbols(chan, n, rng)
        blk = ch.simulate_batch(noiseless(chan), x[None])
        # one symbol per stage: the last stage knows every position but the
        # last, its only target
        free = n - 1
        view = sic.stage_view(sic.SicPlan(n, n), n, x[None])
        app = fba.fba_point_apps(aux, [blk.y], [view])[0]
        truth = chan.symbol_indices(x[free:free + 1])[0]
        assert app.positions.tolist() == [free]
        assert app.probs[0, 0, truth] == pytest.approx(1.0, abs=1e-9)

    def test_rows_sum_to_one(self):
        chan = sld_2pam_channel().with_transmit_power_db(4.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            blk = ch.random_block(chan, 12, rng)
            app = block_apps(aux, blk, sic.SicPlan(1, 12))
            assert np.abs(app.probs.sum(axis=2) - 1.0).max() < 1e-9

    def test_pinning_never_hurts_on_average(self):
        """Posterior mass on the truth rises (3 sigma) when earlier-stage
        symbols are revealed, averaged over 120 blocks."""
        chan = linear_2ask_channel().with_transmit_power_db(0.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(13)
        n = 12
        plan = sic.SicPlan(2, n)
        diffs = []
        for _ in range(120):
            blk = ch.random_block(chan, n, rng)
            targets = plan.stage_positions(2)
            truth = chan.symbol_indices(blk.x[0, targets])
            sdd = block_apps(aux, blk, sic.SicPlan(1, n)).probs[0, targets]
            cond = block_apps(aux, blk, plan, 2).probs[0]
            p_sdd = sdd[np.arange(len(targets)), truth]
            p_cond = cond[np.arange(len(targets)), truth]
            diffs.append(np.mean(p_cond - p_sdd))
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert diffs.mean() > -3.0 * se

    def test_shift_covariance(self):
        """Shifting symbols and observations together permutes interior rows."""
        chan = linear_2ask_channel().with_transmit_power_db(1.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(15)
        n, shift = 80, 2
        blk = ch.random_block(chan, n, rng)
        x2 = np.roll(blk.x, shift, axis=1)
        y2 = np.roll(blk.y, shift * chan.config.n_os, axis=1)
        plan = sic.SicPlan(1, n)
        app1 = block_apps(aux, blk, plan)
        app2 = fba.fba_point_apps(aux, [y2], [sic.stage_view(plan, 1, x2)])[0]
        margin = 20
        inner = np.arange(margin, n - margin)
        assert np.abs(app2.probs[0, inner + shift]
                      - app1.probs[0, inner]).max() < 1e-9


def square_law_4ask_channel(p_tx_db=4.0):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=2,
                           nonlinearity=ch.SquareLaw(), noise_variance=1.0,
                           precoding="differential-phase")
    return ch.make_channel(cfg, k_g=7).with_transmit_power_db(p_tx_db)


class TestBatchedStage:
    """Upper bound and pinning over a batch of blocks; that a stage call
    equals its one-block calls is checked for every detector in
    tests/test_rates.py."""

    @pytest.mark.parametrize("slice_bytes", [apps.SLICE_BYTES, 1])
    def test_upper_bound_is_mean_of_block_terms(self, monkeypatch, slice_bytes):
        chan = square_law_4ask_channel()
        aux = fba.build_aux_channel(chan, memory=3)
        rng = np.random.default_rng(33)
        # a one-block bound is that block's (log q(y|x) - log q(y)) / (n ln 2)
        terms = np.array([fba.fba_ub(aux, ch.random_block(chan, 24, rng))[0]
                          for _ in range(5)])
        # the same five blocks as one batch
        blocks = rates.simulate_eval_blocks(chan, 5, 24, np.random.default_rng(33))
        monkeypatch.setattr(apps, "SLICE_BYTES", slice_bytes)
        ub, se = fba.fba_ub(aux, blocks)
        assert ub == np.mean(terms)
        assert se == fba.jackknife_stderr(terms)

    def test_inconsistent_pinning_in_one_block_raises(self):
        """Noise-free memoryless channel with widely spaced levels: a wrong
        pinned value has -inf metric, so that block has no surviving path."""
        chan = memoryless_binary_channel(p_tx=1e10, noise=1e-300)
        aux = fba.build_aux_channel(chan, memory=0)
        n = 8
        plan = sic.SicPlan(2, n)
        rng = np.random.default_rng(35)
        x = np.stack([ch.draw_symbols(chan, n, rng) for _ in range(3)])
        view = sic.stage_view(plan, 2, x)
        y = x.copy()                     # y = x on this channel without noise
        with np.errstate(over="ignore"):  # the metrics of wrong values
            good = fba.fba_point_apps(aux, [y], [view])[0]
        truth = chan.symbol_indices(x[:, view.targets])
        assert np.array_equal(np.argmax(good.probs, axis=2), truth)
        known_val = view.known_val.copy()
        known_val[1] *= -1
        bad = dataclasses.replace(view, known_val=known_val)
        with pytest.raises(RuntimeError, match="inconsistent pinning"), \
                np.errstate(over="ignore"):
            fba.fba_point_apps(aux, [y], [bad])


def traced_peak(fn):
    """Peak bytes that numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestByteEstimates:
    """The per-block byte formulas that size the trellis slices state what
    a call holds."""

    def spy_slices(self, monkeypatch):
        seen = []

        def spy(n_blocks, bytes_per_block):
            seen.append(bytes_per_block)
            return apps.block_slices(n_blocks, bytes_per_block)
        monkeypatch.setattr(fba, "block_slices", spy)
        return seen

    def test_formulas_match_the_peak_of_one_call(self, monkeypatch):
        """At n = 2,000 on the 64-state trellis, a call over two blocks, in
        one slice, peaks between its formula and 1.25 times it."""
        chan = square_law_4ask_channel()
        aux = fba.build_aux_channel(chan, memory=3)
        n = 2000
        blocks = rates.simulate_eval_blocks(chan, 2, n, np.random.default_rng(3))
        view = sic.stage_view(sic.SicPlan(1, n), 1, blocks.x)
        fba.fba_point_apps(aux, [blocks.y], [view])   # fills the edge mean tables
        seen = self.spy_slices(monkeypatch)
        calls = [lambda: fba.fba_point_apps(aux, [blocks.y], [view]),
                 lambda: fba.fba_ub(aux, blocks)]
        for call in calls:
            peak = traced_peak(call)
            estimate = len(blocks) * seen[-1]
            assert estimate <= apps.SLICE_BYTES
            assert estimate <= peak <= 1.25 * estimate, (peak, estimate)

    def test_one_long_block_within_the_slice_budget(self):
        """One block of n = 20,000 on a 16-state trellis holds at most
        SLICE_BYTES besides its O(n) inputs and outputs: the observations
        and pins of the stacked rows, and the log APPs with the two arrays
        that normalize them.  Every step's branch metrics, stored, would
        alone take 2.4 times the budget."""
        chan = square_law_4ask_channel()
        aux = fba.build_aux_channel(chan, memory=2)
        n, m = 20000, aux.m_symbols
        blocks = rates.simulate_eval_blocks(chan, 1, n, np.random.default_rng(4))
        view = sic.stage_view(sic.SicPlan(1, n), 1, blocks.x)
        # a short call fills the edge mean tables
        fba.fba_point_apps(aux, [blocks.y[:, :aux.n_os * 40]], [sic.stage_view(
            sic.SicPlan(1, 40), 1, blocks.x[:, :40])])
        peak = traced_peak(lambda: fba.fba_point_apps(aux, [blocks.y], [view]))
        inputs_outputs = 8 * (aux.n_os * n + n + 3 * n * m)
        assert peak <= apps.SLICE_BYTES + inputs_outputs


class TestUpperBound:
    def test_invertible_channel_reaches_entropy(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=1, n_sim=1,
                               nonlinearity=ch.Identity(), noise_variance=1e-4)
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0])))
        aux = fba.build_aux_channel(chan, memory=0)
        rng = np.random.default_rng(17)
        blocks = rates.simulate_eval_blocks(chan, 8, 64, rng)
        ub, se = fba.fba_ub(aux, blocks)
        assert ub == pytest.approx(2.0, abs=max(3 * se, 1e-3))

    def test_vanishing_power_gives_zero(self):
        chan = linear_2ask_channel().with_transmit_power(1e-10)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(19)
        blocks = rates.simulate_eval_blocks(chan, 8, 64, rng)
        ub, se = fba.fba_ub(aux, blocks)
        assert abs(ub) < max(3 * se, 1e-3)

    def test_sandwiches_matched_lower_bound(self):
        """With exact memory the bound sits above the simulated per-symbol
        rate m + E[log2 Q(truth)] of the same detector (3 sigma)."""
        chan = linear_2ask_channel().with_transmit_power_db(2.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(21)
        n, n_blk = 48, 30
        blocks = rates.simulate_eval_blocks(chan, n_blk, n, rng)
        app = block_apps(aux, blocks, sic.SicPlan(1, n))
        lb_vals = 1.0 + app.log2_prob_of(chan.symbol_indices(blocks.x)).mean(axis=1)
        lb = float(np.mean(lb_vals))
        lb_se = fba.jackknife_stderr(lb_vals)
        ub, ub_se = fba.fba_ub(aux, blocks)
        assert ub >= lb - 3.0 * np.hypot(lb_se, ub_se)

    def test_empty_batch_rejected(self):
        chan = linear_2ask_channel()
        aux = fba.build_aux_channel(chan, memory=2)
        empty = ch.Blocks(x=np.zeros((0, 8)), y=np.zeros((0, 8)), p_tx=np.zeros(0))
        with pytest.raises(ValueError):
            fba.fba_ub(aux, empty)


# the MultCounter kind of the branch metrics the backward pass recomputes
RECOMPUTED = "recomputed-metric"


def algorithmic(counter):
    """The multiplications of the recursions themselves, which the closed
    form counts: all but the recomputed branch metrics."""
    return counter.total - counter.by_kind.get(RECOMPUTED, 0)


class TestCounting:
    def test_instrumented_run_matches_formula(self):
        """The closed form reproduces the instrumented trellis exactly."""
        chan = memoryless_binary_channel(p_tx=1.0)
        aux = fba.build_aux_channel(chan, memory=0)
        n = 16
        rng = np.random.default_rng(23)
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(sic.SicPlan(1, n), 1, blk.x)
        counter = MultCounter()
        fba.fba_point_apps(aux, [blk.y], [view], counter=counter)
        w = 2  # |A|^(memory+1)
        hand = n * 2 * aux.n_os * w + 2 * (n + aux.future) * w + n * 2 * w
        assert algorithmic(counter) == hand
        assert algorithmic(counter) == \
            fba.count_fba_multiplications(aux, n, 1) * n / 1
        # the backward pass recomputes the forward pass's branch metrics
        assert counter.by_kind[RECOMPUTED] == counter.by_kind["metric"] == \
            n * 2 * aux.n_os * w

    def test_instrumented_run_with_memory(self):
        chan = linear_2ask_channel().with_transmit_power_db(0.0)
        aux = fba.build_aux_channel(chan, memory=2)
        n, s_stages = 12, 2
        rng = np.random.default_rng(25)
        blocks = rates.simulate_eval_blocks(chan, 3, n, rng)
        x, y = blocks.x, blocks.y
        counter = MultCounter()
        for s in range(1, s_stages + 1):
            view = sic.stage_view(sic.SicPlan(s_stages, n), s, x[:1])
            fba.fba_point_apps(aux, [y[:1]], [view], counter=counter)
        per_app = algorithmic(counter) / n
        assert per_app == pytest.approx(fba.count_fba_multiplications(aux, n, s_stages))
        w = aux.m_symbols ** (aux.memory + 1)
        assert counter.by_kind[RECOMPUTED] == s_stages * n * 2 * aux.n_os * w

        # a whole stage in one call, and all stages in one pass, execute
        # exactly the per-block counts
        plan = sic.SicPlan(s_stages, n)
        per_block, batched, joint = MultCounter(), MultCounter(), MultCounter()
        views = [sic.stage_view(plan, s, x) for s in range(1, s_stages + 1)]
        for s in range(1, s_stages + 1):
            for i in range(len(blocks)):
                fba.fba_point_apps(
                    aux, [y[i:i + 1]], [sic.stage_view(plan, s, x[i:i + 1])],
                    counter=per_block)
            fba.fba_point_apps(aux, [y], [views[s - 1]], counter=batched)
        fba.fba_point_apps(aux, [y] * s_stages, views, counter=joint)
        assert batched.by_kind == per_block.by_kind == joint.by_kind
        closed = fba.count_fba_multiplications(aux, n, s_stages) * n
        assert algorithmic(batched) == algorithmic(per_block) == \
            pytest.approx(closed * len(blocks))

    def test_alphabet_scaling_is_exact(self):
        cfg4 = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=1, n_sim=1,
                                nonlinearity=ch.Identity(), noise_variance=1.0)
        cfg8 = dataclasses.replace(cfg4, alphabet=ch.Alphabet.bipolar_ask(8))
        g = ch.FirFilter(taps=np.array([0.3, 1.0, 0.2]))
        aux4 = fba.build_aux_channel(ch.make_channel(cfg4, g=g), memory=1)
        aux8 = fba.build_aux_channel(ch.make_channel(cfg8, g=g), memory=1)
        c4 = fba.count_fba_multiplications(aux4, 32, 1)
        c8 = fba.count_fba_multiplications(aux8, 32, 1)
        assert c8 == 4 * c4

    def test_stage_scaling_is_exactly_linear(self):
        chan = linear_2ask_channel()
        aux = fba.build_aux_channel(chan, memory=2)
        c = [fba.count_fba_multiplications(aux, 24, s) for s in (1, 2, 3)]
        assert c[1] - c[0] == pytest.approx(c[2] - c[1])
        assert c[1] > c[0]


# -- frozen reference of the trellis recursions -------------------------------
# The recursions in their plain state-major form: a (w, M, n_os) mean table
# and (B, w, M) backward contributions, each summed by numpy along its last
# axis.  The sample-major forward and input-major backward must reproduce
# their bits.

def reference_lse(a, axis):
    m = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(m)
    safe = np.where(finite, m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - safe).sum(axis=axis)) + safe.squeeze(axis)
    return np.where(finite.squeeze(axis), out, -np.inf)


def reference_step_mu(aux, kappa, n):
    """The step's branch means state-major, (n_states, M, n_os)."""
    zl = min(max(aux.memory - kappa + 1, 0), aux.memory)
    zr = min(max(kappa - 1 - n, 0), aux.memory)
    mu = aux.masked_mu(zl, zr, input_zeroed=kappa > n)
    return np.ascontiguousarray(mu.transpose(1, 2, 0))


def reference_forward(aux, y, pin, counter=None, keep=False):
    """fba._forward's signature, so that fba_ub can run on it; no counting."""
    b, n = pin.shape
    m, w = aux.m_symbols, aux.n_states
    n_os, f = aux.n_os, aux.future
    inv2s = 1.0 / (2.0 * aux.sigma2)
    const = -0.5 * n_os * (fba.LOG2PI + np.log(aux.sigma2))
    steps = n + f
    prior = fba._priors(aux, pin)
    chunks = y.reshape(b, n, n_os)
    log_alpha = np.full((b, w), -np.inf)
    log_alpha[:, 0] = 0.0
    log_z = np.zeros(b)
    alphas = np.empty((steps, b, w)) if keep else None
    gammas = np.empty((steps, b, w, m)) if keep else None
    for kappa in range(1, steps + 1):
        lg = prior[:, kappa - 1, None, :]
        if kappa > f:
            diff = chunks[:, kappa - f - 1, None, None, :] - reference_step_mu(aux, kappa, n)
            lg = lg + (-(diff * diff).sum(axis=3) * inv2s + const)
        trans = log_alpha[:, :, None] + lg
        new_alpha = reference_lse(trans.reshape(b, m, w), axis=1)
        peak = new_alpha.max(axis=1)
        if not np.all(np.isfinite(peak)):
            raise RuntimeError(f"inconsistent pinning: no surviving path at step {kappa}")
        log_alpha = new_alpha - peak[:, None]
        log_z += peak
        if keep:
            alphas[kappa - 1] = log_alpha
            gammas[kappa - 1] = lg
    log_z += reference_lse(log_alpha, axis=1)
    return log_z, alphas, gammas


def reference_backward_apps(log_alpha, log_gamma, positions):
    steps, b, w, m = log_gamma.shape
    next_state = (np.arange(w)[:, None] * m + np.arange(m)[None, :]) % w
    start = np.where(np.arange(w) == 0, 0.0, -np.inf)
    row_of = {int(p) + 1: i for i, p in enumerate(positions)}
    log_beta = np.zeros((b, w))
    logp = np.empty((b, len(positions), m))
    for kappa in range(steps, 0, -1):
        contrib = log_gamma[kappa - 1] + log_beta[:, next_state]
        if kappa in row_of:
            la_prev = log_alpha[kappa - 2] if kappa >= 2 else start[None, :]
            logp[:, row_of[kappa]] = reference_lse(la_prev[:, :, None] + contrib, axis=1)
        log_beta = reference_lse(contrib, axis=2)
        log_beta = log_beta - log_beta.max(axis=1, keepdims=True)
    empty = ~np.any(np.isfinite(logp), axis=2)
    if np.any(empty):
        p = positions[np.nonzero(empty)[1][0]]
        raise RuntimeError(f"inconsistent pinning: empty posterior at position {p}")
    return logp


def stepwise_metrics(aux, y, pin):
    """fba._step_metrics of every step, as the reference stores its branch
    metrics, (steps, B, n_states, M)."""
    b, n = pin.shape
    prior = fba._priors(aux, pin)
    chunks = y.reshape(b, n, aux.n_os)
    with np.errstate(over="ignore"):
        return np.stack([
            np.broadcast_to(fba._step_metrics(aux, chunks, prior, kappa),
                            (b, aux.n_states, aux.m_symbols))
            for kappa in range(1, n + aux.future + 1)])


def oracle_channel(m_symbols, n_os):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(m_symbols), n_os=n_os,
                           n_sim=max(n_os, 2), nonlinearity=ch.SquareLaw(),
                           noise_variance=1.0)
    return ch.make_channel(cfg, k_g=7).with_transmit_power_db(3.0)


class TestRecursionOracle:
    """The trellis recursions equal the frozen state-major reference bit for
    bit: log-likelihoods, forward messages, branch metrics (recomputed in
    the backward pass), APPs, the bound's path sums over a fully pinned
    block and the upper bound, over alphabet sizes whose sums over inputs take numpy's
    sequential (M < 8) and pairwise (M >= 8) orders, 1, 2 and 4 samples per
    symbol, memories 0-3, the default and another future span, one to 40
    blocks, the first and last SIC stage and a fully pinned block."""

    N, STAGES = 8, 4

    @pytest.mark.parametrize("memory", range(4))
    @pytest.mark.parametrize("n_os", [1, 2, 4])
    @pytest.mark.parametrize("m_symbols", [2, 4, 8, 16])
    def test_equal_to_reference(self, m_symbols, n_os, memory, monkeypatch):
        fba.check_table_size(m_symbols, memory, n_os)
        chan = oracle_channel(m_symbols, n_os)
        default = fba.build_aux_channel(chan, memory).future
        futures = sorted({default, 0 if default else memory})
        auxes = [fba.build_aux_channel(chan, memory, future=f) for f in futures]
        branches = m_symbols ** (memory + 1)
        rng = np.random.default_rng(1000 * m_symbols + 10 * n_os + memory)
        plan = sic.SicPlan(self.STAGES, self.N)
        for aux in auxes:
            for b in (1, 5, 40):
                if b > 1 and b * branches > 1 << 16:
                    continue
                blocks = rates.simulate_eval_blocks(chan, b, self.N, rng)
                # (known, target) positions of the first and last stage,
                # and of a fully pinned block
                cases = [(plan.known_positions(s), plan.stage_positions(s))
                         for s in (1, self.STAGES)]
                cases.append((np.arange(self.N), np.arange(self.N)))
                for known, positions in cases:
                    pin = np.full((b, self.N), -1, dtype=int)
                    pin[:, known] = chan.symbol_indices(blocks.x[:, known])
                    pinned = len(known) == self.N
                    got = fba._forward(aux, blocks.y, pin, keep=True)
                    ref = reference_forward(aux, blocks.y, pin, keep=True)
                    assert np.array_equal(got[0], ref[0])
                    assert np.array_equal(got[1], ref[1])
                    assert np.array_equal(
                        stepwise_metrics(aux, blocks.y, pin), ref[2])
                    assert np.array_equal(
                        fba._forward(aux, blocks.y, pin)[0], ref[0])
                    assert np.array_equal(
                        fba._backward_apps(aux, blocks.y, pin, got[1],
                                           [(0, b, positions)]),
                        reference_backward_apps(ref[1], ref[2], positions))
                    if pinned:
                        # the bound's pinned rows as path sums
                        assert np.array_equal(
                            fba._path_log_z(aux, blocks.y, pin), ref[0])
                ub = fba.fba_ub(aux, blocks)
                with monkeypatch.context() as mp:
                    mp.setattr(fba, "_forward", reference_forward)
                    assert np.array_equal(fba.fba_ub(aux, blocks), ub, equal_nan=True)

    def test_pinning_errors_name_the_same_step_and_position(self):
        chan = memoryless_binary_channel(p_tx=1e10, noise=1e-300)
        aux = fba.build_aux_channel(chan, memory=0)
        x = ch.draw_symbols(chan, (3, 8), np.random.default_rng(37))
        pin = chan.symbol_indices(x)
        pin[1, 5] = 1 - pin[1, 5]
        messages = []
        for forward in (fba._forward, reference_forward):
            with pytest.raises(RuntimeError, match="at step 6") as err, \
                    np.errstate(over="ignore"):
                forward(aux, x.copy(), pin)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

        # a block whose branch metrics all vanish at one step of the
        # backward pass has no posterior there or before: its chunk there
        # overflows every squared difference
        aux = fba.build_aux_channel(memoryless_binary_channel(), memory=2)
        rng = np.random.default_rng(39)
        y = rng.normal(size=(3, 9))
        y[2, 5] = 1e300
        pin = np.full((3, 9), -1)
        log_alpha = rng.normal(size=(9, 3, 4))
        log_gamma = stepwise_metrics(aux, y, pin)
        assert np.all(log_gamma[5, 2] == -np.inf)
        positions = np.array([1, 4, 7])
        messages = []
        for backward in (
                lambda: fba._backward_apps(aux, y, pin, log_alpha,
                                           [(0, 3, positions)]),
                lambda: reference_backward_apps(log_alpha, log_gamma, positions)):
            with pytest.raises(RuntimeError, match="at position 1") as err, \
                    np.errstate(invalid="ignore"):
                backward()
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def three_row_slices(n_blocks, bytes_per_block):
    return [(lo, min(lo + 3, n_blocks)) for lo in range(0, n_blocks, 3)]


class TestJointPass:
    """All stages of a sweep point in one trellis pass give each stage the
    APPs of its own pass through the frozen reference recursions, bit for
    bit: 2- and 4-ASK, memories 0-3, one to four stages, 1, 5 and 17 blocks
    per stage, in one slice, one row per slice, and three-row slices that
    cut across stage boundaries."""

    N = 12

    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4])
    @pytest.mark.parametrize("memory", range(4))
    @pytest.mark.parametrize("m_symbols", [2, 4])
    def test_equal_to_reference_stage_passes(self, m_symbols, memory, n_stages,
                                             monkeypatch):
        chan = oracle_channel(m_symbols, 2)
        aux = fba.build_aux_channel(chan, memory)
        plan = sic.SicPlan(n_stages, self.N)
        rng = np.random.default_rng(100 * m_symbols + 10 * memory + n_stages)
        for b in (1, 5, 17):
            blocks = [rates.simulate_eval_blocks(chan, b, self.N, rng)
                      for _ in range(n_stages)]
            views = [sic.stage_view(plan, s, blk.x)
                     for s, blk in zip(range(1, n_stages + 1), blocks)]
            want = []
            for blk, view in zip(blocks, views):
                pin = np.full((b, self.N), -1, dtype=int)
                pin[:, view.known_idx] = chan.symbol_indices(view.known_val)
                _, log_alpha, log_gamma = reference_forward(aux, blk.y, pin,
                                                            keep=True)
                logp = reference_backward_apps(log_alpha, log_gamma,
                                               view.targets)
                want.append(apps.AppMatrix.from_logp(logp, view.targets).probs)
            for slicing in ("default", "one row", "three rows"):
                with monkeypatch.context() as mp:
                    if slicing == "one row":
                        mp.setattr(apps, "SLICE_BYTES", 1)
                    if slicing == "three rows":
                        mp.setattr(fba, "block_slices", three_row_slices)
                    got = fba.fba_point_apps(aux, [blk.y for blk in blocks],
                                             views)
                assert len(got) == n_stages
                for app, probs, view in zip(got, want, views):
                    assert np.array_equal(app.probs, probs), (b, slicing)
                    assert np.array_equal(app.positions, view.targets)

    def test_views_of_another_plan_refused(self):
        chan = oracle_channel(2, 2)
        aux = fba.build_aux_channel(chan, 1)
        blk = rates.simulate_eval_blocks(chan, 2, self.N,
                                         np.random.default_rng(5))
        views = [sic.stage_view(sic.SicPlan(s, self.N), s, blk.x)
                 for s in (1, 2)]
        with pytest.raises(ValueError, match="share a SIC plan"):
            fba.fba_point_apps(aux, [blk.y, blk.y], views)


@pytest.mark.parametrize("n_terms", list(range(1, 129)) + [129, 200, 256, 300])
def test_sum_in_numpy_order_matches_numpy(n_terms):
    """The helper rounds as numpy's sum along a contiguous axis does, on
    log-sum-exp-like terms in [0, 1] with exact zeros; a numpy whose order
    changes fails here rather than drifting the trellis bits."""
    rng = np.random.default_rng(n_terms)
    terms = rng.random((n_terms, 6, 33))
    terms[rng.random(terms.shape) < 0.25] = 0.0
    parts = list(terms)
    expected = np.stack(parts, -1).sum(axis=-1)
    assert np.array_equal(fba._sum_in_numpy_order(parts), expected)
    # the terms as one array, also a strided one, take the same tree
    assert np.array_equal(fba._sum_in_numpy_order(terms), expected)
    assert np.array_equal(
        fba._sum_in_numpy_order(terms.transpose(0, 2, 1)), expected.T)
