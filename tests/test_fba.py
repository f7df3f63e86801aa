"""Forward-backward detector: auxiliary-channel means, exact-posterior
equivalence, pinning, the auxiliary-channel upper bound, and the
multiplication accounting."""

import dataclasses
import itertools

import numpy as np
import pytest

from nlsic import channel as ch
from nlsic import apps, fba, sic
from nlsic.apps import MultCounter


def linear_2ask_channel(taps=(0.4, 1.0, 0.3), noise=1.0):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=noise)
    return ch.make_channel(cfg, g=ch.FirFilter(taps=np.asarray(taps, float), rate=1))


def sld_2pam_channel(k_g=5, noise=1.0):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.unipolar_pam(2), n_os=2, n_sim=2,
                           nonlinearity=ch.SquareLaw(), noise_variance=noise)
    return ch.make_channel(cfg, k_g=k_g)


def memoryless_binary_channel(p_tx=1.0, noise=1.0):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=noise)
    chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0]), rate=1))
    return chan.with_transmit_power(p_tx)


def noiseless(chan):
    return dataclasses.replace(
        chan, config=dataclasses.replace(chan.config, noise_variance=0.0))


def block_apps(aux, blk, plan, s=1):
    """APPs of one block at stage s, as an AppMatrix over one block."""
    return fba.fba_apps(aux, blk.y[None], sic.stage_view(plan, s, blk.x[None]))


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
        blk = ch.simulate_block(clean, xs)
        logls[i] = -np.sum((y - blk.y) ** 2) / (2.0 * sigma2)
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
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([0.0, 1.0, 0.0]), rate=2))
        aux = fba.build_aux_channel(chan, memory=0)
        for a in range(4):
            assert aux.mu_table[0, a, 0] == pytest.approx(chan.levels[a] ** 2)

    def test_exact_memory_means_match_simulation(self):
        chan = linear_2ask_channel()
        aux = fba.build_aux_channel(chan, memory=2)
        assert aux.is_exact
        rng = np.random.default_rng(1)
        ctx = chan.levels[rng.integers(0, 2, 3)]
        blk = ch.simulate_block(noiseless(chan), ctx)
        q = len(ctx) - aux.future            # chunk slot of the newest window
        got = aux.mean_contexts(ctx[None, :])[0]
        assert np.allclose(got, blk.y[aux.n_os * (q - 1):aux.n_os * q], atol=1e-12)

    def test_truncated_memory_is_documented_mismatch(self):
        chan = linear_2ask_channel()
        full = fba.build_aux_channel(chan, memory=2)
        trunc = fba.build_aux_channel(chan, memory=1)
        assert not trunc.is_exact
        # same (state, input) suffix must disagree somewhere with the truth
        diffs = []
        for a in range(2):
            for b in range(2):
                w_full = full.mu_table[a * 2 + b, :, :]      # oldest digit varies
                diffs.append(np.abs(trunc.mu_table[b, :, :] - w_full).max())
        assert max(diffs) > 1e-3

    def test_table_budget(self):
        chan = sld_2pam_channel()
        with pytest.raises(ValueError):
            fba.build_aux_channel(chan, memory=2, table_budget=4)

    def test_square_law_exact_memory_means(self):
        chan = sld_2pam_channel().with_transmit_power_db(3.0)
        aux = fba.build_aux_channel(chan, memory=chan.memory)
        rng = np.random.default_rng(2)
        ctx = chan.levels[rng.integers(0, 2, aux.window)]
        blk = ch.simulate_block(noiseless(chan), ctx)
        q = aux.window - aux.future
        got = aux.mean_contexts(ctx[None, :])[0]
        assert np.allclose(got, blk.y[aux.n_os * (q - 1):aux.n_os * q], atol=1e-12)


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
        expect = 1.0 / (1.0 + np.exp(-2.0 * blk.y * r))
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
            post = exhaustive_posteriors(chan, blk.y, n, 1.0)
            assert np.abs(app.probs[0] - post).max() < 1e-9

    def test_exhaustive_posterior_with_pinning(self):
        chan = linear_2ask_channel().with_transmit_power_db(2.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(7)
        n = 6
        plan = sic.SicPlan(2, n)
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(plan, 2, blk.x[None])
        app = fba.fba_apps(aux, blk.y[None], view)
        post = exhaustive_posteriors(chan, blk.y, n, 1.0, view=view)
        assert np.abs(app.probs[0] - post[view.targets]).max() < 1e-9

    def test_all_known_but_one_noiseless_point_mass(self):
        chan = linear_2ask_channel(noise=1e-6).with_transmit_power_db(0.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(9)
        n = 7
        x = ch.draw_symbols(chan, n, rng)
        blk = ch.simulate_block(noiseless(chan), x)
        free = 3
        idx = np.array([i for i in range(n) if i != free])
        # one symbol per stage: stage free+1 targets the free position only
        view = sic.StageView(plan=sic.SicPlan(n, n), s=free + 1,
                             known_idx=idx, known_val=x[idx][None])
        app = fba.fba_apps(aux, blk.y[None], view)
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
            truth = chan.symbol_indices(blk.x[targets])
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
        x2 = np.roll(blk.x, shift)
        y2 = np.roll(blk.y, shift * chan.config.n_os)
        plan = sic.SicPlan(1, n)
        app1 = fba.fba_apps(aux, blk.y[None], sic.stage_view(plan, 1, blk.x[None]))
        app2 = fba.fba_apps(aux, y2[None], sic.stage_view(plan, 1, x2[None]))
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
        blocks = [ch.random_block(chan, 24, rng) for _ in range(5)]
        # a one-block bound is that block's (log q(y|x) - log q(y)) / (n ln 2)
        terms = np.array([fba.fba_ub(aux, [blk])[0] for blk in blocks])
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
            good = fba.fba_apps(aux, y, view)
        truth = chan.symbol_indices(x[:, view.targets])
        assert np.array_equal(np.argmax(good.probs, axis=2), truth)
        known_val = view.known_val.copy()
        known_val[1] *= -1
        bad = dataclasses.replace(view, known_val=known_val)
        with pytest.raises(RuntimeError, match="inconsistent pinning"), \
                np.errstate(over="ignore"):
            fba.fba_apps(aux, y, bad)


class TestUpperBound:
    def test_invertible_channel_reaches_entropy(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=1, n_sim=1,
                               nonlinearity=ch.Identity(), noise_variance=1e-4)
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0]), rate=1))
        aux = fba.build_aux_channel(chan, memory=0)
        rng = np.random.default_rng(17)
        blocks = [ch.random_block(chan, 64, rng) for _ in range(8)]
        ub, se = fba.fba_ub(aux, blocks)
        assert ub == pytest.approx(2.0, abs=max(3 * se, 1e-3))

    def test_vanishing_power_gives_zero(self):
        chan = linear_2ask_channel().with_transmit_power(1e-10)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(19)
        blocks = [ch.random_block(chan, 64, rng) for _ in range(8)]
        ub, se = fba.fba_ub(aux, blocks)
        assert abs(ub) < max(3 * se, 1e-3)

    def test_sandwiches_matched_lower_bound(self):
        """With exact memory the bound sits above the simulated per-symbol
        rate m + E[log2 Q(truth)] of the same detector (3 sigma)."""
        chan = linear_2ask_channel().with_transmit_power_db(2.0)
        aux = fba.build_aux_channel(chan, memory=2)
        rng = np.random.default_rng(21)
        n, n_blk = 48, 30
        blocks = [ch.random_block(chan, n, rng) for _ in range(n_blk)]
        x = np.stack([blk.x for blk in blocks])
        app = fba.fba_apps(aux, np.stack([blk.y for blk in blocks]),
                           sic.stage_view(sic.SicPlan(1, n), 1, x))
        lb_vals = 1.0 + app.log2_prob_of(chan.symbol_indices(x)).mean(axis=1)
        lb = float(np.mean(lb_vals))
        lb_se = fba.jackknife_stderr(lb_vals)
        ub, ub_se = fba.fba_ub(aux, blocks)
        assert ub >= lb - 3.0 * np.hypot(lb_se, ub_se)

    def test_empty_block_list_rejected(self):
        chan = linear_2ask_channel()
        aux = fba.build_aux_channel(chan, memory=2)
        with pytest.raises(ValueError):
            fba.fba_ub(aux, [])


class TestCounting:
    def test_instrumented_run_matches_formula(self):
        """The closed form reproduces the instrumented trellis exactly."""
        chan = memoryless_binary_channel(p_tx=1.0)
        aux = fba.build_aux_channel(chan, memory=0)
        n = 16
        rng = np.random.default_rng(23)
        blk = ch.random_block(chan, n, rng)
        view = sic.stage_view(sic.SicPlan(1, n), 1, blk.x[None])
        counter = MultCounter()
        fba.fba_apps(aux, blk.y[None], view, counter=counter)
        w = 2  # |A|^(memory+1)
        hand = n * 2 * aux.n_os * w + 2 * (n + aux.future) * w + n * 2 * w
        assert counter.total == hand
        assert counter.total == fba.count_fba_multiplications(aux, n, 1) * n / 1

    def test_instrumented_run_with_memory(self):
        chan = linear_2ask_channel().with_transmit_power_db(0.0)
        aux = fba.build_aux_channel(chan, memory=2)
        n, s_stages = 12, 2
        rng = np.random.default_rng(25)
        blk = ch.random_block(chan, n, rng)
        counter = MultCounter()
        for s in range(1, s_stages + 1):
            view = sic.stage_view(sic.SicPlan(s_stages, n), s, blk.x[None])
            fba.fba_apps(aux, blk.y[None], view, counter=counter)
        per_app = counter.total / n
        assert per_app == pytest.approx(fba.count_fba_multiplications(aux, n, s_stages))

        # a whole stage in one call executes exactly the per-block counts
        plan = sic.SicPlan(s_stages, n)
        blocks = [blk] + [ch.random_block(chan, n, rng) for _ in range(2)]
        x = np.stack([b.x for b in blocks])
        y = np.stack([b.y for b in blocks])
        per_block, batched = MultCounter(), MultCounter()
        for s in range(1, s_stages + 1):
            for i in range(len(blocks)):
                fba.fba_apps(aux, y[i:i + 1], sic.stage_view(plan, s, x[i:i + 1]),
                             counter=per_block)
            fba.fba_apps(aux, y, sic.stage_view(plan, s, x), counter=batched)
        assert batched.by_kind == per_block.by_kind
        closed = fba.count_fba_multiplications(aux, n, s_stages) * n
        assert batched.total == per_block.total == pytest.approx(closed * len(blocks))

    def test_alphabet_scaling_is_exact(self):
        cfg4 = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=1, n_sim=1,
                                nonlinearity=ch.Identity(), noise_variance=1.0)
        cfg8 = dataclasses.replace(cfg4, alphabet=ch.Alphabet.bipolar_ask(8))
        g = ch.FirFilter(taps=np.array([0.3, 1.0, 0.2]), rate=1)
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
