"""Trainer: loss identities, exact gradients against finite differences,
ADAM loop behaviour, convergence on a memoryless toy with a closed-form
conditional-entropy target, and determinism."""

import pickle

import numpy as np
import pytest
from scipy.integrate import quad

from nlsic import channel as ch
from nlsic import rnn, sic, training


def make_batch_for(shape, n_per, rng, batch_size=4):
    inputs = rng.normal(size=(batch_size, n_per * shape.phases, shape.dims[0]))
    targets = rng.integers(0, shape.m_symbols, size=(batch_size, n_per))
    return training.Batch(inputs=inputs, targets=targets)


def unrolled_schedule(p_count, t_steps):
    """The phase of every step and the steps that read out an APP, built
    independently of rnn.forward and training.backward."""
    phase_idx = np.tile(np.arange(p_count), t_steps // p_count)
    return phase_idx, np.flatnonzero(phase_idx == 0)


def small_shape(m_symbols=4, n_stages=1, s=1):
    return rnn.RnnShape(dims=(6, 8), l_y=4, l_ic=2, n_stages=n_stages, s=s,
                        m_symbols=m_symbols, n_os=2)


class TestLoss:
    def test_uniform_apps_score_alphabet_entropy(self):
        shape = small_shape(m_symbols=4)
        model = rnn.RnnModel(shape)  # all-zero weights -> uniform softmax
        batch = make_batch_for(shape, 6, np.random.default_rng(0))
        bits, clamps = training.loss(model, batch)
        assert bits == pytest.approx(2.0, abs=1e-12)
        assert clamps == 0

    def test_point_mass_scores_zero(self):
        shape = small_shape(m_symbols=4)
        model = rnn.RnnModel(shape)
        batch = make_batch_for(shape, 6, np.random.default_rng(1))
        batch.targets[...] = 2
        model.out_b[...] = np.array([-200.0, -200.0, 200.0, -200.0])
        bits, _ = training.loss(model, batch)
        assert bits == pytest.approx(0.0, abs=1e-12)

    def test_loss_never_negative(self):
        rng = np.random.default_rng(2)
        shape = small_shape()
        for _ in range(5):
            model = rnn.init_model(shape, rng)
            bits, _ = training.loss(model, make_batch_for(shape, 5, rng))
            assert bits >= 0.0

    def test_clamp_counts_and_keeps_loss_finite(self):
        shape = small_shape(m_symbols=4)
        model = rnn.RnnModel(shape)
        model.out_b[...] = np.array([300.0, -300.0, -300.0, -300.0])
        batch = make_batch_for(shape, 4, np.random.default_rng(3))
        batch.targets[...] = 1  # probability ~ e^-600, far below the floor
        bits, clamps = training.loss(model, batch)
        assert np.isfinite(bits)
        assert bits == pytest.approx(-np.log2(1e-30), rel=1e-9)
        assert clamps == batch.targets.size


class TestBackward:
    def fd_max_rel_error(self, shape, n_per, seed, h=1e-5):
        rng = np.random.default_rng(seed)
        model = rnn.init_model(shape, rng)
        batch = make_batch_for(shape, n_per, rng, batch_size=3)
        grads, _, _ = training.backward(model, batch)
        worst = 0.0
        for (name, arr), (_, grad) in zip(model.parameters(), grads.parameters()):
            gf = grad.reshape(-1)
            flat = arr.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp, _ = training.loss(model, batch)
                flat[k] = orig - h
                lm, _ = training.loss(model, batch)
                flat[k] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(fd - gf[k]) / max(abs(fd), abs(gf[k]), 1e-8))
        return worst

    def test_finite_difference_single_phase(self):
        shape = rnn.RnnShape(dims=(6, 8), l_y=4, l_ic=2, n_stages=2, s=1,
                             m_symbols=4, n_os=2)
        assert self.fd_max_rel_error(shape, 4, seed=0) < 1e-4

    def test_finite_difference_two_layers_three_phases(self):
        shape = rnn.RnnShape(dims=(8, 12, 8), l_y=6, l_ic=2, n_stages=3, s=1,
                             m_symbols=4, n_os=2)
        assert self.fd_max_rel_error(shape, 2, seed=2) < 1e-4

    def test_duplicated_batch_item_same_gradient(self):
        shape = small_shape()
        rng = np.random.default_rng(4)
        model = rnn.init_model(shape, rng)
        single = make_batch_for(shape, 5, rng, batch_size=1)
        doubled = training.Batch(
            inputs=np.repeat(single.inputs, 2, axis=0),
            targets=np.repeat(single.targets, 2, axis=0))
        g1, b1, _ = training.backward(model, single)
        g2, b2, _ = training.backward(model, doubled)
        assert b1 == pytest.approx(b2)
        for (name, a), (_, b) in zip(g1.parameters(), g2.parameters()):
            assert np.allclose(a, b, atol=1e-14)

    def test_zero_model_output_bias_gradient(self):
        """Softmax-CE hand derivation: d/db = mean(softmax - onehot)/ln 2."""
        shape = small_shape(m_symbols=4)
        model = rnn.RnnModel(shape)
        rng = np.random.default_rng(5)
        batch = make_batch_for(shape, 5, rng, batch_size=2)
        grads, _, _ = training.backward(model, batch)
        onehot = np.zeros((batch.targets.size, 4))
        onehot[np.arange(batch.targets.size), batch.targets.reshape(-1)] = 1.0
        expect = (0.25 - onehot).mean(axis=0) / np.log(2.0)
        assert np.allclose(grads.out_b, expect, atol=1e-14)


def reference_forward(model, inputs):
    """The forward pass one step and one fresh array at a time, block-major:
    the bits the workspace forward must reproduce."""
    p_count = model.shape.phases
    r = np.asarray(inputs, dtype=np.float64)
    b, t_steps, _ = r.shape
    phase_idx, out_steps = unrolled_schedule(p_count, t_steps)
    inputs_, pres, hs = [], [], []
    for in_w, in_b, st_w, st_b in model.layers:
        half = in_b.shape[-1]
        pre = np.empty((b, t_steps, 2, half))
        h = np.empty((b, t_steps, 2, half))
        for d, steps, feed in ((0, range(t_steps), -1),
                               (1, range(t_steps - 1, -1, -1), 1)):
            state = np.zeros((b, half))
            for step in steps:
                p = phase_idx[step]
                q = (p + feed) % p_count
                z = (r[:, step] @ in_w[p, d].T + in_b[p, d]
                     + state @ st_w[q, d].T + st_b[q, d])
                pre[:, step, d] = z
                state = np.maximum(z, 0.0)
                h[:, step, d] = state
        inputs_.append(r)
        pres.append(pre)
        hs.append(h)
        r = h.reshape(b, t_steps, 2 * half)
    logits = r[:, out_steps] @ model.out_w.T + model.out_b
    mx = logits.max(axis=2, keepdims=True)
    z = np.exp(logits - mx)
    denom = z.sum(axis=2, keepdims=True)
    logp = (logits - mx) - np.log(denom)
    return logp, (inputs_ + [r], pres, hs, z / denom)


def reference_backward(model, batch):
    """Reverse-mode gradients accumulated step by step into fresh arrays."""
    shape = model.shape
    logp, (inputs, pres, hs, probs) = reference_forward(model, batch.inputs)
    phase_idx, out_steps = unrolled_schedule(shape.phases, batch.inputs.shape[1])
    bits, clamps = training._nll_bits(logp, batch.targets)
    b, n_out, m = logp.shape
    dlogits = probs.copy()
    np.put_along_axis(
        dlogits, batch.targets[:, :, None],
        np.take_along_axis(dlogits, batch.targets[:, :, None], axis=2) - 1.0, axis=2)
    dlogits *= 1.0 / (b * n_out * np.log(2.0))
    picked = np.take_along_axis(logp, batch.targets[:, :, None], axis=2)[:, :, 0]
    dlogits[picked < np.log(training.CLAMP_FLOOR)] = 0.0

    grads = rnn.RnnModel(shape)
    r_last = inputs[-1]
    flat_dl = dlogits.reshape(-1, m)
    grads.out_w += flat_dl.T @ r_last[:, out_steps].reshape(-1, shape.dims[-1])
    grads.out_b += flat_dl.sum(axis=0)
    t_steps = r_last.shape[1]
    dr = np.zeros_like(r_last)
    dr[:, out_steps] = dlogits @ model.out_w
    for i in range(shape.n_recurrent - 1, -1, -1):
        in_w, _, st_w, _ = model.layers[i]
        g_in_w, g_in_b, g_st_w, g_st_b = grads.layers[i]
        half = in_w.shape[2]
        r_in, h = inputs[i], hs[i]
        dh = dr.reshape(b, t_steps, 2, half)
        active = pres[i] > 0
        zero = np.zeros((b, half))
        dr_prev = np.zeros_like(r_in)
        for d, steps, feed in ((0, range(t_steps), -1),
                               (1, range(t_steps - 1, -1, -1), 1)):
            carry = zero
            for step in reversed(steps):
                p = phase_idx[step]
                q = (p + feed) % shape.phases
                dz = (dh[:, step, d] + carry) * active[:, step, d]
                dz_sum = dz.sum(axis=0)
                src = step + feed
                h_src = h[:, src, d] if 0 <= src < t_steps else zero
                g_in_w[p, d] += dz.T @ r_in[:, step]
                g_in_b[p, d] += dz_sum
                g_st_w[q, d] += dz.T @ h_src
                g_st_b[q, d] += dz_sum
                dr_prev[:, step] += dz @ in_w[p, d]
                carry = dz @ st_w[q, d]
        dr = dr_prev
    return grads, bits, clamps


class TestPerStepOracle:
    """The workspace forward and backward equal the step-by-step reference
    bit for bit, on the shapes the benchmark and the acceptance suite train
    and on deeper, multi-phase and odd-sized batches."""

    CASES = {
        # name: (dims, l_y, l_ic, n_stages, s, n_per, batch size, m_symbols)
        "sweep-P2": ((20, 32), 16, 4, 2, 1, 16, 64, 4),
        "sweep-P1": ((20, 32), 16, 4, 2, 2, 32, 64, 4),
        "criterion4": ((16, 32), 16, 0, 1, 1, 32, 64, 4),
        "two-layers-three-phases": ((8, 12, 8), 6, 2, 3, 1, 4, 5, 4),
        "three-layers": ((6, 8, 10, 6), 4, 2, 2, 1, 5, 3, 4),
        "B1": ((20, 32), 16, 4, 2, 1, 16, 1, 4),
        "B7": ((8, 12, 8), 4, 4, 2, 1, 6, 7, 4),
        # one-unit half-states: the sums over blocks and steps have 1-element rows
        "half1": ((3, 2, 2), 2, 1, 2, 1, 9, 9, 4),
        # the softmax sums M columns, sequentially below 8 and pairwise from 8
        "M2": ((8, 12), 6, 2, 2, 1, 8, 9, 2),
        "M8": ((8, 12), 6, 2, 2, 1, 8, 9, 8),
        "M16": ((8, 12, 8), 6, 2, 3, 2, 5, 6, 16),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equal_to_reference(self, case):
        dims, l_y, l_ic, n_stages, s, n_per, b, m_symbols = self.CASES[case]
        shape = rnn.RnnShape(dims=dims, l_y=l_y, l_ic=l_ic, n_stages=n_stages,
                             s=s, m_symbols=m_symbols, n_os=2)
        rng = np.random.default_rng(len(case))
        ws = rnn.Workspace()
        for _ in range(3):
            model = rnn.init_model(shape, rng)
            batch = make_batch_for(shape, n_per, rng, batch_size=b)
            ref_logp, _ = reference_forward(model, batch.inputs)
            ref_grads, ref_bits, ref_clamps = reference_backward(model, batch)
            logp, _ = rnn.forward(model, batch.inputs, ws=ws)
            assert np.array_equal(logp, ref_logp)
            grads, bits, clamps = training.backward(model, batch, ws)
            assert (bits, clamps) == (ref_bits, ref_clamps)
            assert np.array_equal(grads.flat, ref_grads.flat)

    def test_train_stage_equal_to_reference(self, monkeypatch):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2,
                               n_sim=2, nonlinearity=ch.SquareLaw(),
                               noise_variance=1.0, precoding="differential-phase")
        chan = ch.make_channel(cfg, k_g=7).with_transmit_power_db(6.0)
        shape = rnn.RnnShape(dims=(20, 32), l_y=16, l_ic=4, n_stages=2, s=1,
                             m_symbols=4, n_os=2)
        tcfg = training.TrainConfig(learn_rate=3e-3, n_iter=5, n_batch=64,
                                    t_rnn=32, seed=9)
        plan = sic.SicPlan(2, 96)
        model, log = training.train_stage(chan, plan, 1, shape, tcfg)
        monkeypatch.setattr(training, "backward",
                            lambda m, batch, ws=None: reference_backward(m, batch))
        ref_model, ref_log = training.train_stage(chan, plan, 1, shape, tcfg)
        assert model.flat.tobytes() == ref_model.flat.tobytes()
        assert (log.loss_bits, log.grad_norm, log.clamp_events) == \
            (ref_log.loss_bits, ref_log.grad_norm, ref_log.clamp_events)


class TestLabelSums:
    """_add_by_label sums each label's rows as a strided view with the bits
    of the boolean-mask selection it replaces, whichever way the steps run
    and whatever a row's size."""

    @staticmethod
    def masked_sums(g, labels, rows):
        for label in range(len(g)):
            picked = rows[labels == label]
            if len(picked) == 0:
                continue
            if picked[0].size > 1:
                g[label] += np.add.reduce(picked, axis=0)
            else:
                g[label] += np.add.accumulate(picked, axis=0)[-1]

    @pytest.mark.parametrize("p_count", [1, 2, 3, 4])
    @pytest.mark.parametrize("row_shape", [(1,), (5,), (3, 7), (1, 1)])
    @pytest.mark.parametrize("feed", [-1, 1])
    def test_equal_to_masked_sums(self, p_count, row_shape, feed):
        rng = np.random.default_rng(p_count)
        for t_steps in (p_count, 7 * p_count, 40 * p_count):
            phases = np.arange(t_steps) % p_count
            back = slice(None, None, feed)
            rows = rng.normal(size=(t_steps,) + row_shape)
            for labels in (phases[back], (phases[back] + feed) % p_count):
                got = np.zeros((p_count,) + row_shape)
                want = np.zeros_like(got)
                training._add_by_label(got, labels, rows[back])
                self.masked_sums(want, labels, rows[back])
                assert np.array_equal(got, want)


class TestMakeBatch:
    def test_same_batch_as_plan_indexing(self):
        """make_batch, which reads a stage's decided symbols and targets
        through its view, gives the batch of the plan's positions indexed
        directly, with targets by an argmin over the levels, bit for bit, on
        the rnn-sweep benchmark's batches of both stages."""
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2,
                               n_sim=2, nonlinearity=ch.SquareLaw(),
                               noise_variance=1.0, precoding="differential-phase")
        chan = ch.make_channel(cfg, k_g=7).with_transmit_power_db(4.0)
        for s in (1, 2):
            shape = rnn.RnnShape(dims=(20, 32), l_y=16, l_ic=4, n_stages=2,
                                 s=s, m_symbols=4, n_os=2)
            plan = sic.SicPlan(2, 2 * 32 // shape.phases)
            indexer = rnn.build_indexer(plan, s, shape)
            norm = training.calibrate_normalization(chan, np.random.default_rng(5))
            batch = training.make_batch(chan, indexer, norm, 64,
                                        np.random.default_rng(s))
            rng = np.random.default_rng(s)
            blocks = ch.simulate_batch(chan, ch.draw_symbols(chan, (64, plan.n), rng),
                                       rng)
            inputs = rnn.gather_inputs(indexer, blocks.y,
                                       blocks.x[:, plan.known_positions(s)], norm)
            x = blocks.x[:, plan.stage_positions(s)]
            targets = np.argmin(np.abs(np.subtract.outer(x, chan.levels)), axis=-1)
            assert np.array_equal(batch.inputs, inputs)
            assert np.array_equal(batch.targets, targets)


class TestGradGlobalNorm:
    @pytest.mark.parametrize("dims,n_stages,s", [
        ((20, 32), 2, 1), ((20, 32), 2, 2),   # the rnn-sweep benchmark's
        ((6, 8), 1, 1), ((9, 12, 10), 3, 1)])
    def test_equal_to_per_tensor_sums(self, dims, n_stages, s):
        """The norm the trainlog records has the bits of each tensor's own
        np.sum(g * g), added in canonical order, on gradients whose
        magnitudes span eight decades."""
        shape = rnn.RnnShape(dims=dims, l_y=dims[0] - 2, l_ic=2,
                             n_stages=n_stages, s=s, m_symbols=4, n_os=2)
        grads = rnn.RnnModel(shape)
        rng = np.random.default_rng(sum(dims) + s)
        for _ in range(30):
            size = grads.flat.size
            grads.flat[...] = rng.standard_normal(size) * \
                10.0 ** rng.uniform(-6, 2, size)
            expected = float(np.sqrt(sum(float(np.sum(g * g))
                                         for _, g in grads.parameters())))
            assert training.grad_global_norm(grads) == expected


def binary_conditional_entropy(level, sigma2=1.0):
    """H(X | Y) of +-level through a real Gaussian channel, by quadrature."""
    def phi(y, mu):
        return np.exp(-(y - mu) ** 2 / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)

    def integrand(y):
        a, b = phi(y, level), phi(y, -level)
        p = a / (a + b)
        ent = 0.0
        for q in (p, 1 - p):
            if q > 0:
                ent -= q * np.log2(q)
        return 0.5 * (a + b) * ent

    lim = 12 + 3 * level
    val, _ = quad(integrand, -lim, lim, limit=200)
    return val


class TestTrainStage:
    def memoryless_channel(self, p_tx=1.5):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                               nonlinearity=ch.Identity(), noise_variance=1.0)
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0])))
        return chan.with_transmit_power(p_tx)

    def test_reaches_conditional_entropy_on_memoryless_toy(self):
        chan = self.memoryless_channel()
        plan = sic.SicPlan(1, 64)
        shape = rnn.RnnShape(dims=(1, 8), l_y=1, l_ic=0, n_stages=1, s=1,
                             m_symbols=2, n_os=1)
        cfg = training.TrainConfig(learn_rate=5e-3, n_iter=800, n_batch=64,
                                   t_rnn=8, seed=11)
        model, log = training.train_stage(chan, plan, 1, shape, cfg)
        target = binary_conditional_entropy(chan.levels[1])

        indexer = rnn.build_indexer(sic.SicPlan(1, 8), 1, shape)
        rng = np.random.default_rng(999)
        batch = training.make_batch(chan, indexer, model.norm, 4096, rng)
        bits, _ = training.loss(model, batch)
        assert bits == pytest.approx(target, abs=0.02)
        # soft monotone trend: early average clearly above late average
        early = np.mean(log.loss_bits[:50])
        late = np.mean(log.loss_bits[-50:])
        assert late < early

    def test_zero_iterations_returns_initialization(self):
        chan = self.memoryless_channel()
        plan = sic.SicPlan(1, 16)
        shape = rnn.RnnShape(dims=(1, 8), l_y=1, l_ic=0, n_stages=1, s=1,
                             m_symbols=2, n_os=1)
        cfg = training.TrainConfig(learn_rate=1e-3, n_iter=0, n_batch=8,
                                   t_rnn=8, seed=7)
        model_a, log = training.train_stage(chan, plan, 1, shape, cfg)
        model_b, _ = training.train_stage(chan, plan, 1, shape, cfg)
        assert log.loss_bits == []
        for (_, a), (_, b) in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(a, b)

    def test_determinism_bit_identical(self):
        chan = self.memoryless_channel()
        plan = sic.SicPlan(1, 16)
        shape = rnn.RnnShape(dims=(1, 8), l_y=1, l_ic=0, n_stages=1, s=1,
                             m_symbols=2, n_os=1)
        cfg = training.TrainConfig(learn_rate=1e-3, n_iter=25, n_batch=16,
                                   t_rnn=8, seed=21)
        model_a, log_a = training.train_stage(chan, plan, 1, shape, cfg)
        model_b, log_b = training.train_stage(chan, plan, 1, shape, cfg)
        assert log_a.loss_bits == log_b.loss_bits
        assert log_a.grad_norm == log_b.grad_norm
        for (_, a), (_, b) in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(a, b)

    def test_warm_start_shape_mismatch(self):
        chan = self.memoryless_channel()
        plan = sic.SicPlan(1, 16)
        shape = rnn.RnnShape(dims=(1, 8), l_y=1, l_ic=0, n_stages=1, s=1,
                             m_symbols=2, n_os=1)
        other = rnn.RnnShape(dims=(1, 12), l_y=1, l_ic=0, n_stages=1, s=1,
                             m_symbols=2, n_os=1)
        warm = rnn.RnnModel(other)
        cfg = training.TrainConfig(learn_rate=1e-3, n_iter=1, n_batch=4,
                                   t_rnn=8, seed=3)
        with pytest.raises(ValueError, match="warm-start"):
            training.train_stage(chan, plan, 1, shape, cfg, warm_model=warm)

    def test_t_rnn_divisibility(self):
        chan = self.memoryless_channel()
        plan = sic.SicPlan(2, 16)
        shape = rnn.RnnShape(dims=(1, 8), l_y=1, l_ic=0, n_stages=2, s=1,
                             m_symbols=2, n_os=1)
        cfg = training.TrainConfig(learn_rate=1e-3, n_iter=1, n_batch=4,
                                   t_rnn=7, seed=3)
        with pytest.raises(ValueError, match="divisible"):
            training.train_stage(chan, plan, 1, shape, cfg)

    def test_divergence_guard(self, monkeypatch):
        chan = self.memoryless_channel()
        plan = sic.SicPlan(1, 16)
        shape = rnn.RnnShape(dims=(1, 8), l_y=1, l_ic=0, n_stages=1, s=1,
                             m_symbols=2, n_os=1)
        monkeypatch.setattr(training, "DIVERGENCE_PATIENCE", 5)
        cfg = training.TrainConfig(learn_rate=200.0, n_iter=500, n_batch=8,
                                   t_rnn=8, seed=5)
        with pytest.raises(training.TrainDivergence):
            training.train_stage(chan, plan, 1, shape, cfg)

    def test_divergence_survives_pickling(self):
        """Worker processes return their errors pickled."""
        exc = training.TrainDivergence(5, [1.0, 2.5, 40.0])
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is training.TrainDivergence
        assert back.iteration == 5
        assert back.recent == [1.0, 2.5, 40.0]
        assert str(back) == str(exc)

    def test_trainlog_csv(self, tmp_path):
        log = training.TrainLog()
        log.append(1.25, 0.5)
        log.append(1.20, 0.4)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,loss_bits,grad_norm"
        assert lines[1].startswith("0,1.2500000000,")
        assert lines[2] == "1,1.2000000000,0.4000000000"
