"""Channel simulator: pulse construction, nonlinearities, block pipeline,
guard handling, noise statistics, precoding and power accounting."""

import dataclasses
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from nlsic import channel as ch


def toy_linear_channel(noise=1.0, taps=(0.4, 1.0, 0.3), power_db=None):
    cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                           nonlinearity=ch.Identity(), noise_variance=noise)
    chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.asarray(taps, float), rate=1))
    return chan.with_transmit_power_db(power_db) if power_db is not None else chan


class TestAlphabet:
    def test_unipolar_points(self):
        for m in (2, 4, 8, 16, 32, 64):
            a = ch.Alphabet.unipolar_pam(m)
            assert np.array_equal(a.points, np.arange(m))
            assert a.bits == int(np.log2(m))

    def test_bipolar_points(self):
        for m in (2, 4, 8, 16, 32, 64):
            a = ch.Alphabet.bipolar_ask(m)
            assert np.array_equal(a.points, np.arange(1 - m, m, 2))
            assert len(a.points) == m

    def test_from_name(self):
        assert ch.Alphabet.from_name("4-ASK").kind == ch.BIPOLAR_ASK
        assert ch.Alphabet.from_name("8-PAM").kind == ch.UNIPOLAR_PAM
        with pytest.raises(ValueError):
            ch.Alphabet.from_name("4-QAM")

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ch.Alphabet(ch.BIPOLAR_ASK, np.array([-1.0, 0.0, 1.0]))

    def test_mean_power_4ask(self):
        # brute force: (1 + 9 + 1 + 9) / 4
        a = ch.Alphabet.bipolar_ask(4)
        assert a.mean_power == pytest.approx(np.mean([1, 9, 1, 9]))


class TestPulse:
    def test_short_sinc_is_nyquist(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=2, n_sim=2)
        g = ch.build_pulse(cfg, k_g=5)
        # zeros at the integer symbol offsets survive normalization exactly
        assert g.taps[0] == pytest.approx(0.0, abs=1e-15)
        assert g.taps[4] == pytest.approx(0.0, abs=1e-15)
        assert g.taps[2] == pytest.approx(1.0, rel=0.06)
        assert g.energy == pytest.approx(2.0, abs=1e-12)

    def test_default_tap_count_and_memory(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=2)
        g = ch.build_pulse(cfg)
        assert len(g) == 151 * 2 + 1
        assert g.symbol_memory == 151

    def test_odd_length_required(self):
        with pytest.raises(ValueError):
            ch.sinc_pulse(4, 2)
        with pytest.raises(ValueError):
            ch.FirFilter(taps=np.ones(4), rate=2)

    def test_square_law_needs_oversampling(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.unipolar_pam(2), n_os=1, n_sim=1,
                               nonlinearity=ch.SquareLaw())
        with pytest.raises(ValueError):
            ch.build_pulse(cfg, k_g=3)

    def test_dispersion_is_all_pass(self):
        fiber = ch.FiberParams(length_km=30.0, beta2_s2_per_km=-2.168e-23)
        h = ch.dispersion_response(303, 2, 35e9, fiber)
        assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-12

    def test_dispersion_preserves_energy(self):
        fiber = ch.FiberParams(length_km=30.0, beta2_s2_per_km=-2.168e-23)
        taps = ch.sinc_pulse(303, 2)
        out = ch.apply_dispersion(taps, 2, 35e9, fiber)
        e_in = np.sum(np.abs(taps) ** 2)
        e_out = np.sum(np.abs(out) ** 2)
        assert abs(e_out - e_in) / e_in < 1e-9
        assert np.iscomplexobj(out)

    @pytest.mark.parametrize("nonlinearity", [ch.Identity(), ch.RappPA()])
    def test_complex_pulse_needs_square_law(self, nonlinearity):
        """A fiber's complex pulse, or a hand-made one, would give complex
        observations under any nonlinearity but the square law."""
        fiber = ch.FiberParams(length_km=30.0, beta2_s2_per_km=-2.168e-23)
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), symbol_rate=35e9,
                               nonlinearity=nonlinearity, fiber=fiber)
        with pytest.raises(ch.ChannelConfigError) as info:
            ch.make_channel(cfg, k_g=7)
        assert info.value.fields == ("nonlinearity", "fiber")
        g = ch.FirFilter(taps=np.array([0.5j, 1.0, 0.5j]), rate=2)
        with pytest.raises(ch.ChannelConfigError):
            ch.make_channel(dataclasses.replace(cfg, fiber=None), g=g)
        square = ch.make_channel(dataclasses.replace(cfg, nonlinearity=ch.SquareLaw()),
                                 k_g=7).with_transmit_power_db(3.0)
        y = ch.random_block(square, 16, np.random.default_rng(1)).y
        assert y.dtype == np.float64 and np.all(np.isfinite(y))

    def test_complex_receiver_taps_refused(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2))
        h = ch.FirFilter(taps=np.array([0.1j, 1.0, 0.1j]), rate=2)
        with pytest.raises(ValueError, match="receiver taps must be real"):
            ch.make_channel(cfg, k_g=5, h=h)

    def test_brickwall_receiver_identity_at_twice_rate(self):
        h = ch.brickwall_receiver(2, k_h=9)
        peak = np.zeros(9)
        peak[4] = 1.0
        assert np.allclose(h.taps, peak, atol=1e-15)

    def test_total_memory_adds(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1,
                               n_sim=2, nonlinearity=ch.SquareLaw())
        chan = ch.make_channel(cfg, k_g=9,
                               h=ch.FirFilter(taps=np.ones(5), rate=2))
        assert chan.memory_g == 4
        assert chan.memory_h == 2
        assert chan.memory == 6


class TestNonlinearity:
    def test_square_law_values(self):
        sld = ch.SquareLaw()
        assert sld(np.float64(3.0)) == pytest.approx(9.0)
        assert sld(np.complex128(1.0 + 1.0j)) == pytest.approx(2.0)

    def test_square_law_real_input_is_bit_identical(self):
        """The real path z*z gives the bits of |z|^2 = re^2 + im^2; complex
        input keeps that expression."""
        tiny = np.finfo(float).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-160, -1e-160,
                      np.finfo(float).tiny, 0.1, -0.7, 3.0, 1e150, -1e150,
                      1e160, np.finfo(float).max, np.inf, -np.inf])
        x = np.concatenate([x, np.random.default_rng(1).normal(size=64)])
        with np.errstate(over="ignore", invalid="ignore"):
            for v in (x, x + 1j * np.roll(x, 1)):
                old = np.real(v) ** 2 + np.imag(v) ** 2
                new = ch.SquareLaw()(v)
                assert new.dtype == old.dtype
                assert np.array_equal(new.view(np.uint64), old.view(np.uint64))

    def test_rapp_hard_limiter_limit(self):
        pa = ch.RappPA(p=400.0, x_sat=1.0)
        z = 2.0 * np.exp(1j * 0.7)
        out = pa(z)
        assert abs(out) == pytest.approx(1.0, rel=1e-3)
        assert np.angle(out) == pytest.approx(0.7)

    def test_rapp_small_signal_transparent(self):
        pa = ch.RappPA(p=3.0, x_sat=1.0)
        assert pa(np.float64(0.01)) == pytest.approx(0.01, rel=1e-6)

    def test_identity(self):
        z = np.array([1.0 + 2j, -3.0])
        assert np.array_equal(ch.Identity()(z), z)


class TestSimulateBlock:
    def test_impulse_passthrough(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=1, n_sim=1,
                               nonlinearity=ch.Identity(), noise_variance=0.0)
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([1.0]), rate=1))
        blk = ch.simulate_block(chan, np.array([1.0, -1.0, 1.0]))
        assert np.allclose(blk.y, [1.0, -1.0, 1.0])

    def test_impulse_passthrough_oversampled(self):
        # centered sampling grid: the per-symbol chunk ends at the symbol center
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=2, n_sim=2,
                               nonlinearity=ch.Identity(), noise_variance=0.0)
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([0.0, 1.0, 0.0]), rate=2))
        blk = ch.simulate_block(chan, np.array([1.0, -1.0]))
        assert np.allclose(blk.y, [0.0, 1.0, 0.0, -1.0])

    def test_square_law_single_symbol(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=1, n_sim=2,
                               nonlinearity=ch.SquareLaw(), noise_variance=0.0)
        chan = ch.make_channel(cfg, g=ch.FirFilter(taps=np.array([0.0, 1.0, 0.0]), rate=2))
        blk = ch.simulate_block(chan, np.array([-3.0]))
        assert np.allclose(blk.y, [9.0])

    def test_matches_plain_numpy_pipeline(self):
        """Production path equals an independently coded linear-conv oracle."""
        rng = np.random.default_rng(3)
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=2,
                               nonlinearity=ch.SquareLaw(), noise_variance=0.0)
        g = ch.build_pulse(cfg, k_g=9)
        h = ch.FirFilter(taps=np.array([0.25, 0.5, 0.25]), rate=2).normalized(1.0)
        chan = ch.DiscreteChannel(config=cfg, g=g, h=h)
        x = chan.levels[rng.integers(0, 4, 12)]
        blk = ch.simulate_block(chan, x)

        guard = len(g) // 2 + len(h) // 2
        padded = np.concatenate([np.zeros(guard), x, np.zeros(guard)])
        fine = np.zeros(len(padded) * 2)
        fine[::2] = padded
        s = np.convolve(fine, g.taps, mode="same")
        z = np.convolve(s**2, h.taps, mode="same")
        expect = [z[2 * (guard - 1) + k] for k in range(1, 2 * len(x) + 1)]
        assert np.allclose(blk.y, expect, atol=1e-12)

    def test_guard_zero_sufficiency(self):
        """Independently simulated blocks concatenate sample-exactly."""
        chan = dataclasses.replace(
            toy_linear_channel(noise=0.0),
            config=dataclasses.replace(toy_linear_channel(0.0).config, noise_variance=0.0))
        rng = np.random.default_rng(5)
        x1 = ch.draw_symbols(chan, 7, rng)
        x2 = ch.draw_symbols(chan, 9, rng)
        y1 = ch.simulate_block(chan, x1).y
        y2 = ch.simulate_block(chan, x2).y
        gap = 2 * chan.guard_symbols
        xcat = np.concatenate([x1, np.zeros(gap), x2])
        ycat = ch.simulate_block(chan, xcat).y
        n_os = chan.config.n_os
        assert np.array_equal(ycat[:n_os * 7], y1)
        assert np.array_equal(ycat[n_os * (7 + gap):], y2)

    def test_all_alphabets_finite(self):
        rng = np.random.default_rng(11)
        for m in (2, 4, 8, 16, 32, 64):
            for alph in (ch.Alphabet.unipolar_pam(m), ch.Alphabet.bipolar_ask(m)):
                cfg = ch.ChannelConfig(alphabet=alph, n_os=2, n_sim=2,
                                       nonlinearity=ch.SquareLaw(), noise_variance=1.0)
                chan = ch.make_channel(cfg, k_g=13)
                blk = ch.random_block(chan, 16, rng)
                assert np.all(np.isfinite(blk.y))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            ch.simulate_block(toy_linear_channel(0.0), np.array([]))

    def test_batch_matches_single(self):
        """Batch rows equal single blocks bit for bit, noise included: real
        noise is drawn row after row, so a batch consumes the generator as
        consecutive blocks do."""
        for n_sim, k_h in [(2, 1), (4, 9)]:
            cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2,
                                   n_sim=n_sim, nonlinearity=ch.SquareLaw(),
                                   noise_variance=1.0, precoding="differential-phase")
            chan = ch.make_channel(cfg, k_g=7, k_h=k_h).with_transmit_power_db(3.0)
            rng = np.random.default_rng(2)
            rows = np.stack([ch.draw_symbols(chan, 10, rng) for _ in range(5)])
            x_emit, y = ch.simulate_batch(chan, rows, np.random.default_rng(8))
            rng_single = np.random.default_rng(8)
            for i in range(5):
                blk = ch.simulate_block(chan, rows[i], rng_single)
                assert np.array_equal(x_emit[i], blk.x)
                assert np.array_equal(y[i], blk.y)

    def test_one_row_batch_is_the_block(self):
        """Fiber, square law and a multi-tap receiver on the fine-grid noise
        path: a one-row batch is the block under an equally seeded
        generator."""
        fiber = ch.FiberParams(length_km=20.0, beta2_s2_per_km=-1e-2)
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=4,
                               nonlinearity=ch.SquareLaw(), fiber=fiber,
                               noise_variance=0.5)
        chan = ch.make_channel(cfg, k_g=13, k_h=9).with_transmit_power_db(2.0)
        assert np.iscomplexobj(chan.g.taps)
        x = ch.draw_symbols(chan, 24, np.random.default_rng(4))
        blk = ch.simulate_block(chan, x, np.random.default_rng(5))
        x_emit, y = ch.simulate_batch(chan, x[None], np.random.default_rng(5))
        assert blk.y.dtype == np.float64
        assert np.array_equal(x_emit[0], blk.x)
        assert np.array_equal(y[0], blk.y)

    def test_batch_leaves_scipy_unimported(self):
        """The simulator runs on numpy alone; scipy is a test dependency."""
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from nlsic import channel as ch
            cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2,
                                   n_sim=4, noise_variance=1.0)
            chan = ch.make_channel(cfg, k_g=9, k_h=9)
            ch.simulate_batch(chan, np.ones((3, 8)), np.random.default_rng(0))
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        src = str(Path(ch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.stdout.strip() == "[]"


class TestSamplingExactness:
    def test_half_band_square_law_is_critically_sampled(self):
        """Squares of the two-per-symbol grid samples carry everything.

        A periodic fine-grid reference (ideal interpolation, square law,
        ideal lowpass, decimation) reproduces the coarse-grid squares to
        machine precision when the pulse occupies half the coarse band.
        """
        rng = np.random.default_rng(9)
        n = 48
        n_sim = 2
        length = n * n_sim

        taps = ch.sinc_pulse(4 * n_sim + 1, n_sim)
        fiber = ch.FiberParams(length_km=20.0, beta2_s2_per_km=-1e-2)
        taps = ch.apply_dispersion(taps, n_sim, 1.0, fiber)
        pulse = np.zeros(length, dtype=complex)
        k = len(taps)
        pulse[:k] = taps
        pulse = np.roll(pulse, -(k // 2))
        spectrum = np.fft.fft(pulse)
        nu = np.fft.fftfreq(length)
        spectrum[np.abs(nu) > 0.24] = 0.0  # strictly inside half band

        x = ch.Alphabet.bipolar_ask(4).points[rng.integers(0, 4, n)]
        up = np.zeros(length, dtype=complex)
        up[::n_sim] = x
        x2 = np.fft.ifft(np.fft.fft(up) * spectrum)
        z2 = np.abs(x2) ** 2  # coarse-grid square-law samples

        # periodic bandlimited interpolation to a 2x finer grid
        spec2 = np.fft.fft(x2)
        fine_spec = np.zeros(2 * length, dtype=complex)
        fine_spec[:length // 2] = spec2[:length // 2]
        fine_spec[-length // 2:] = spec2[-length // 2:]
        x4 = np.fft.ifft(2.0 * fine_spec)
        z4 = np.abs(x4) ** 2

        # ideal lowpass to the coarse band, then decimate
        spec_z4 = np.fft.fft(z4)
        nu4 = np.fft.fftfreq(2 * length)
        spec_z4[np.abs(nu4) > 0.2500001] = 0.0
        z4_lp = np.fft.ifft(spec_z4).real
        assert np.max(np.abs(z4_lp[::2] - z2)) < 1e-10


class TestNoise:
    def test_brickwall_noise_is_white(self):
        """Single-tap receiver at the output rate: lag 0 at sigma^2 within 1%,
        lags 1..10 within three standard errors of zero over 1e6 samples."""
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=2, n_sim=2,
                               nonlinearity=ch.SquareLaw(), noise_variance=1.0)
        chan = ch.make_channel(cfg, k_g=5).with_transmit_power(1e-12)
        rng = np.random.default_rng(17)
        samples = []
        n = 50_000
        for _ in range(10):
            samples.append(ch.random_block(chan, n, rng).y)
        w = np.concatenate(samples)
        n_tot = len(w)
        assert n_tot >= 1_000_000
        assert np.mean(w**2) == pytest.approx(1.0, rel=0.01)
        se = 1.0 / np.sqrt(n_tot)
        for lag in range(1, 11):
            acf = np.mean(w[:-lag] * w[lag:])
            assert abs(acf) < 3.0 * se, f"lag {lag}: {acf} vs 3se {3 * se}"

    @pytest.mark.parametrize("simulate", ["random_block", "simulate_batch"])
    def test_filtered_noise_acf_follows_receiver(self, simulate):
        """Multi-tap receiver: ACF tracks the filter autocorrelation at the
        decimated lags, lag 0 normalized to sigma^2, for evaluation blocks
        and training batches alike."""
        receivers = [(2, 1, ch.FirFilter(taps=np.array([0.5, 1.0, 0.5]), rate=2)),
                     (4, 2, ch.brickwall_receiver(4, k_h=9))]
        for n_sim, n_os, h in receivers:
            cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=n_os,
                                   n_sim=n_sim, nonlinearity=ch.Identity(),
                                   noise_variance=1.0)
            g = ch.FirFilter(taps=np.eye(1, n_sim + 1, n_sim // 2).ravel(), rate=n_sim)
            chan = ch.make_channel(cfg, g=g, h=h).with_transmit_power(1e-12)
            rng = np.random.default_rng(23)
            n = 20_000 // n_os
            if simulate == "random_block":
                rows = [ch.random_block(chan, n, rng).y for _ in range(10)]
            else:
                rows = ch.simulate_batch(chan, ch.draw_symbols(chan, (10, n), rng), rng)[1]
            y = np.concatenate(rows)
            y = y - np.mean(y)
            hn = h.normalized(1.0).taps
            dec = cfg.decimation
            assert np.mean(y * y) == pytest.approx(1.0, rel=0.02)
            for lag in (1, 2):
                # lags are in output samples, dec fine samples each
                expect = np.sum(hn[:-lag * dec] * hn[lag * dec:])
                got = np.mean(y[:-lag] * y[lag:])
                assert got == pytest.approx(expect, abs=0.01), (n_sim, lag)


class TestPrecoding:
    def test_sign_example(self):
        alph = ch.Alphabet.bipolar_ask(4)
        x = np.array([1.0, 3.0, -1.0, -3.0])
        out = ch.differential_precode(x, alph)
        assert np.array_equal(np.sign(out), [1, 1, -1, 1])
        assert np.array_equal(np.abs(out), np.abs(x))

    def test_all_positive_passthrough(self):
        alph = ch.Alphabet.bipolar_ask(4)
        x = np.array([1.0, 3.0, 1.0])
        assert np.array_equal(ch.differential_precode(x, alph), x)

    def test_pam_noop(self):
        alph = ch.Alphabet.unipolar_pam(4)
        x = np.array([0.0, 3.0, 2.0])
        assert np.array_equal(ch.differential_precode(x, alph), x)

    def test_roundtrip_exhaustive(self):
        """precode(x) is invertible for every sign pattern up to length 8:
        magnitudes pass through, and each data sign is the product of two
        neighbouring emitted signs, with +1 before the block."""
        alph = ch.Alphabet.bipolar_ask(4)
        rng = np.random.default_rng(31)
        for n in range(1, 9):
            mags = rng.choice([1.0, 3.0], size=n)
            for signs in itertools.product([-1.0, 1.0], repeat=n):
                x = mags * np.array(signs)
                e = ch.differential_precode(x, alph)
                assert np.array_equal(np.abs(e), np.abs(x))
                prev = np.concatenate(([1.0], np.sign(e[:-1])))
                assert np.array_equal(np.sign(e) * prev, np.sign(x))


class TestTransmitPower:
    def test_zero_input(self):
        blk = ch.simulate_block(toy_linear_channel(0.0), np.zeros(16))
        assert blk.p_tx == 0.0

    def test_unit_variance_symbols(self):
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(2), n_os=2, n_sim=2,
                               nonlinearity=ch.Identity(), noise_variance=0.0)
        chan = ch.make_channel(cfg, k_g=41)
        rng = np.random.default_rng(37)
        p = np.mean([ch.random_block(chan, 400, rng).p_tx for _ in range(20)])
        assert p == pytest.approx(1.0, rel=0.02)

    def test_4ask_mean_power_five(self):
        # brute-force oracle: E[A^2] = (1 + 9) / 2 over {+-1, +-3}
        cfg = ch.ChannelConfig(alphabet=ch.Alphabet.bipolar_ask(4), n_os=2, n_sim=2,
                               nonlinearity=ch.Identity(), noise_variance=0.0)
        chan = ch.make_channel(cfg, k_g=41)
        rng = np.random.default_rng(41)
        p = np.mean([ch.random_block(chan, 400, rng).p_tx for _ in range(20)])
        assert p == pytest.approx(5.0, rel=0.03)

    def test_power_scaling_hits_target(self):
        chan = toy_linear_channel(0.0).with_transmit_power_db(7.0)
        rng = np.random.default_rng(43)
        p = np.mean([ch.random_block(chan, 500, rng).p_tx for _ in range(20)])
        assert 10 * np.log10(p) == pytest.approx(7.0, abs=0.15)
