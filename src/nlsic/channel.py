"""Discrete-time simulation of a bandlimited channel with a memoryless nonlinearity.

The ground-truth simulator: symbols are upsampled to a simulation grid,
shaped by an oversampled transmit filter (optionally including chromatic
dispersion of a single-mode fiber), passed through a pointwise nonlinearity,
receiver-filtered, decimated to the output rate, and disturbed by real
Gaussian noise.  All filters are centered FIR filters of odd length; blocks
carry enough guard zeros that neighbouring blocks cannot interfere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

UNIPOLAR_PAM = "unipolar-PAM"
BIPOLAR_ASK = "bipolar-ASK"


@dataclass(frozen=True, eq=False)
class Alphabet:
    """Real symbol alphabet: unipolar PAM levels {0..M-1} or bipolar ASK
    levels {±1, ±3, ..., ±(M-1)}, ascending."""

    kind: str
    points: np.ndarray

    def __post_init__(self):
        m = len(self.points)
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError(f"alphabet size {m} is not a power of two")
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("alphabet points must be strictly increasing")

    @classmethod
    def unipolar_pam(cls, m_symbols: int) -> "Alphabet":
        return cls(UNIPOLAR_PAM, np.arange(m_symbols, dtype=np.float64))

    @classmethod
    def bipolar_ask(cls, m_symbols: int) -> "Alphabet":
        return cls(BIPOLAR_ASK, np.arange(1 - m_symbols, m_symbols, 2, dtype=np.float64))

    @classmethod
    def from_name(cls, name: str) -> "Alphabet":
        """Parse strings like "4-ASK" or "8-PAM"."""
        size_str, _, kind = name.partition("-")
        m_symbols = int(size_str)
        if kind.upper() == "PAM":
            return cls.unipolar_pam(m_symbols)
        if kind.upper() == "ASK":
            return cls.bipolar_ask(m_symbols)
        raise ValueError(f"unknown alphabet {name!r}")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def bits(self) -> int:
        return int(np.log2(self.size))

    @property
    def mean_power(self) -> float:
        """E[A^2] under the uniform input distribution."""
        return float(np.mean(self.points**2))


@dataclass(frozen=True, eq=False)
class FirFilter:
    """Centered FIR filter on the simulation grid.

    `taps[half_len]` multiplies lag zero; taps must have odd length so the
    filter is symmetric around its center.
    """

    taps: np.ndarray

    def __post_init__(self):
        if len(self.taps) % 2 != 1:
            raise ValueError(f"filter length {len(self.taps)} must be odd")

    def __len__(self) -> int:
        return len(self.taps)

    @property
    def half_len(self) -> int:
        return len(self.taps) // 2

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.taps) ** 2))

    def normalized(self, energy: float = 1.0) -> "FirFilter":
        scale = np.sqrt(energy / self.energy)
        return replace(self, taps=self.taps * scale)

    def apply_same(self, rows: np.ndarray) -> np.ndarray:
        """Centered same-length convolution of each row of a 2-D batch.

        One np.convolve call serves the batch: the rows lie end to end, each
        followed by half_len zeros, as far as a centered output reaches, so
        no output of a row reaches into the next.  An output's dot product is
        the one a per-row convolution makes, except for a row's first and
        last half_len outputs, whose dot products get longer with zero terms
        added and so can round differently.  simulate_batch never reads them
        into y: the guard symbols put every output-grid sample at least
        h.half_len samples inside the receiver's rows, and every pulse
        sample that reaches it at least g.half_len inside the pulse's rows.
        p_tx sums all of the pulse's outputs, but at n_sim >= 2 the guard
        makes its edge outputs sums of zero products, exact in any order.
        (At n_sim = 1 they hold the end symbols' tails, and a last-bit change
        there could reach p_tx.)  A one-tap filter, or a batch of no rows,
        is a product by the tap.
        """
        b, n = rows.shape
        lo = self.half_len
        if lo == 0 or b == 0:
            return rows * self.taps[0]
        # the padding takes the rows' dtype, so complex rows stay complex
        laid = np.zeros((b, n + lo), dtype=rows.dtype)
        laid[:, :n] = rows
        full = np.convolve(laid.ravel(), self.taps)[:laid.size]
        return full.reshape(b, n + lo)[:, lo:]


# ---------------------------------------------------------------------------
# Memoryless nonlinearities


@dataclass(frozen=True)
class SquareLaw:
    """Single-photodiode detector, |z|^2.  Output is real."""

    name: str = field(default="square-law", init=False)
    mults_per_sample: int = field(default=1, init=False)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(z):
            return np.real(z) ** 2 + np.imag(z) ** 2
        # x*x + 0.0 == x*x exactly, so skip the zero imaginary part
        return z * z


@dataclass(frozen=True)
class Identity:
    name: str = field(default="identity", init=False)
    mults_per_sample: int = field(default=0, init=False)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return z


@dataclass(frozen=True)
class RappPA:
    """Solid-state power amplifier magnitude compression with preserved phase:
    |z| -> |z| / (1 + (|z|/x_sat)^(2p))^(1/(2p)).  Large p approaches a hard
    limiter at x_sat."""

    p: float = 3.0
    x_sat: float = 1.0
    name: str = field(default="rapp", init=False)
    mults_per_sample: int = field(default=4, init=False)

    def __post_init__(self):
        for name in ("p", "x_sat"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ChannelConfigError(
                    name, f"{name}={getattr(self, name)} must be finite and positive")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        mag = np.abs(z)
        return z / (1.0 + (mag / self.x_sat) ** (2 * self.p)) ** (1.0 / (2 * self.p))


Nonlinearity = Union[SquareLaw, Identity, RappPA]


# ---------------------------------------------------------------------------
# Channel configuration


@dataclass(frozen=True)
class FiberParams:
    """Linear dispersion parameters of a standard single-mode fiber."""

    length_km: float
    beta2_s2_per_km: float


class ChannelConfigError(ValueError):
    """A channel value out of its domain; `fields` names the ChannelConfig
    attribute or make_channel argument, and any other whose value the check
    weighs it against."""

    def __init__(self, field: str, message: str, *others: str):
        super().__init__(message)
        self.fields = (field,) + others


@dataclass(frozen=True, eq=False)
class ChannelConfig:
    alphabet: Alphabet
    symbol_rate: float = 1.0
    n_os: int = 2
    n_sim: int = 2
    nonlinearity: Nonlinearity = SquareLaw()
    fiber: Optional[FiberParams] = None
    noise_variance: float = 1.0
    precoding: str = "none"

    def __post_init__(self):
        if not 0.0 < self.symbol_rate < np.inf:
            raise ChannelConfigError(
                "symbol_rate",
                f"symbol rate {self.symbol_rate} must be finite and positive")
        if self.n_os < 1:
            raise ChannelConfigError("n_os", f"n_os={self.n_os} must be >= 1")
        if self.n_sim < 1:
            raise ChannelConfigError("n_sim", f"n_sim={self.n_sim} must be >= 1")
        if self.n_sim % self.n_os != 0:
            raise ChannelConfigError(
                "n_sim",
                f"n_sim={self.n_sim} must be an integer multiple of n_os={self.n_os}",
                "n_os")
        if not 0.0 <= self.noise_variance < np.inf:
            raise ChannelConfigError(
                "noise_variance",
                f"noise variance {self.noise_variance} must be finite and >= 0")
        if self.precoding not in ("none", "differential-phase"):
            raise ChannelConfigError("precoding",
                                     f"unknown precoding {self.precoding!r}")

    @property
    def decimation(self) -> int:
        return self.n_sim // self.n_os


# ---------------------------------------------------------------------------
# Pulse construction


def sinc_pulse(k_taps: int, n_sim: int) -> np.ndarray:
    """Truncated sinc at the symbol rate, sampled on the n_sim grid.

    No window is applied; the tap count alone fixes the symbol memory.
    """
    if k_taps < 1 or k_taps % 2 != 1:
        raise ChannelConfigError("k_g", f"tap count {k_taps} must be odd and positive")
    t = (np.arange(k_taps) - k_taps // 2) / n_sim
    return np.sinc(t)


def dispersion_response(k_taps: int, n_sim: int, symbol_rate: float,
                        fiber: FiberParams) -> np.ndarray:
    """All-pass frequency response of the fiber, sampled on the FFT grid
    of a k_taps-point filter at rate n_sim * symbol_rate (fftfreq order)."""
    f = np.fft.fftfreq(k_taps, d=1.0 / (n_sim * symbol_rate))
    beta2_total = fiber.beta2_s2_per_km * fiber.length_km
    return np.exp(1j * 0.5 * beta2_total * (2.0 * np.pi * f) ** 2)


def apply_dispersion(taps: np.ndarray, n_sim: int, symbol_rate: float,
                     fiber: FiberParams) -> np.ndarray:
    """Circularly convolve centered taps with the sampled all-pass fiber
    response.  Unit-modulus response, so tap energy is preserved exactly."""
    k = len(taps)
    center = k // 2
    h_disp = dispersion_response(k, n_sim, symbol_rate, fiber)
    spectrum = np.fft.fft(np.roll(taps.astype(np.complex128), -center))
    out = np.fft.ifft(spectrum * h_disp)
    return np.roll(out, center)


def build_pulse(config: ChannelConfig, k_g: Optional[int] = None) -> FirFilter:
    """Transmit pulse: truncated sinc convolved with the fiber all-pass,
    energy-normalized so a unit-power symbol stream has unit average power
    before the nonlinearity (sum |g|^2 = n_sim)."""
    if isinstance(config.nonlinearity, SquareLaw) and config.n_sim < 2:
        raise ChannelConfigError(
            "n_sim", "square-law detection needs n_sim >= 2 for sufficient statistics",
            "nonlinearity")
    if k_g is None:
        k_g = 151 * config.n_sim + 1
    taps = sinc_pulse(k_g, config.n_sim)
    if config.fiber is not None:
        # a phase that overflows leaves non-finite taps, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            taps = apply_dispersion(taps, config.n_sim, config.symbol_rate,
                                    config.fiber)
        if not np.isfinite(taps).all():
            raise ChannelConfigError(
                "symbol_rate", f"the dispersion phase of {config.fiber} at "
                f"symbol rate {config.symbol_rate} overflows: the pulse taps "
                f"are not finite", "fiber")
    return FirFilter(taps=taps).normalized(config.n_sim)


def brickwall_receiver(n_sim: int, k_h: int = 1) -> FirFilter:
    """Receiver filter with twice the transmit bandwidth, sampled on the
    simulation grid.  At n_sim = 2 this collapses to a unit impulse."""
    if k_h < 1 or k_h % 2 != 1:
        raise ChannelConfigError("k_h", f"tap count {k_h} must be odd and positive")
    u = np.arange(k_h) - k_h // 2
    taps = np.sinc(2.0 * u / n_sim)
    return FirFilter(taps=taps)


# ---------------------------------------------------------------------------
# Differential phase precoding (sign transitions carry the sign information)


def differential_precode(x: np.ndarray, alphabet: Alphabet) -> np.ndarray:
    """Encode sign bits into sign transitions; magnitudes pass through.

    The emitted sign at position k is the running product of data signs up
    to k (reference sign +1 before the block), along the last axis.  No-op
    for unipolar PAM.
    """
    x = np.asarray(x, dtype=np.float64)
    if alphabet.kind != BIPOLAR_ASK:
        return x.copy()
    return np.abs(x) * np.cumprod(np.sign(x), axis=-1)


# ---------------------------------------------------------------------------
# The assembled discrete channel


@dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """Immutable ground-truth channel: transmit filter, nonlinearity,
    receiver filter, decimation and real Gaussian noise.  Its observations
    are real: a complex (dispersed) pulse must meet the square law, and the
    receiver taps are real.  Block simulation is reentrant given a
    caller-supplied generator."""

    config: ChannelConfig
    g: FirFilter
    h: FirFilter
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if self.h.taps.dtype.kind == "c":
            raise ValueError("receiver taps must be real")
        if self.g.taps.dtype.kind == "c" and \
                not isinstance(self.config.nonlinearity, SquareLaw):
            raise ChannelConfigError(
                "nonlinearity", f"a complex pulse, as a fiber makes, needs "
                f"square-law detection, not {self.config.nonlinearity.name}",
                "fiber")

    @property
    def guard_symbols(self) -> int:
        return self.g.half_len + self.h.half_len

    @property
    def future(self) -> int:
        """Symbols after its own that an observation chunk depends on: the
        combined filter span past the chunk's last sample, at its center."""
        return self.guard_symbols // self.config.n_sim

    @property
    def memory(self) -> int:
        """Symbol memory of the exact trellis: the symbols after a chunk's
        own that it depends on, plus those before, whose span reaches back
        from the chunk's first sample, n_os - 1 output samples earlier."""
        cfg = self.config
        past = (self.guard_symbols + cfg.n_sim - cfg.decimation) // cfg.n_sim
        return self.future + past

    @property
    def levels(self) -> np.ndarray:
        return self.config.alphabet.points * self.amplitude_scale

    def with_transmit_power(self, p_tx: float) -> "DiscreteChannel":
        """Rescale symbol amplitudes so the average power of the shaped
        waveform equals p_tx (linear).  Exact for i.i.d. symbols: each symbol
        contributes E[A^2] * sum|g|^2 / n_sim to the per-symbol power."""
        per_unit = self.config.alphabet.mean_power * self.g.energy / self.config.n_sim
        scale = np.sqrt(p_tx / per_unit)
        return replace(self, amplitude_scale=float(scale))

    def with_transmit_power_db(self, p_tx_db: float) -> "DiscreteChannel":
        return self.with_transmit_power(10.0 ** (p_tx_db / 10.0))

    def symbol_indices(self, values: np.ndarray) -> np.ndarray:
        """Alphabet indices of emitted symbol values: the nearest level, by a
        search over the levels' midpoints; a midpoint maps to the lower level."""
        return np.searchsorted((self.levels[:-1] + self.levels[1:]) / 2, values)


def make_channel(config: ChannelConfig, k_g: Optional[int] = None,
                 k_h: int = 1, g: Optional[FirFilter] = None,
                 h: Optional[FirFilter] = None) -> DiscreteChannel:
    """Assemble a channel.  The receiver filter is L2-normalized so signal
    and noise pass through the same canonical filter and the configured
    noise variance is the per-sample variance at the output rate."""
    if g is None:
        g = build_pulse(config, k_g)
    if h is None:
        h = brickwall_receiver(config.n_sim, k_h)
    return DiscreteChannel(config=config, g=g, h=h.normalized(1.0))


# ---------------------------------------------------------------------------
# Block simulation


@dataclass(frozen=True, eq=False)
class Blocks:
    """A batch of simulated transmissions, one block per row: emitted
    symbols (B, n), observations (B, n_os*n), and the measured average
    transmit power (B,) of each block's shaped waveform."""

    x: np.ndarray
    y: np.ndarray
    p_tx: np.ndarray

    SHAPE_ERROR = ("each row of x needs a row of y with a whole, "
                   "positive number of samples per symbol")

    def __post_init__(self):
        rows, n = self.x.shape
        if len(self.y) != rows or n == 0 or self.y.shape[1] % n != 0:
            raise ValueError(self.SHAPE_ERROR)

    def __len__(self) -> int:
        return len(self.x)


def _output_grid_indices(n: int, chan: DiscreteChannel) -> np.ndarray:
    """Fine-grid indices of the n_os*n output samples.

    Sample N_os*kappa (1-based) sits at the center of symbol kappa, i.e. the
    output chunk of a symbol is the n_os samples ending at its center.
    """
    cfg = chan.config
    g_sym = chan.guard_symbols
    j = np.arange(1, cfg.n_os * n + 1)
    return cfg.n_sim * (g_sym - 1) + cfg.decimation * j


def simulate_batch(chan: DiscreteChannel, x_rows: np.ndarray,
                   rng: Optional[np.random.Generator] = None) -> Blocks:
    """Simulate a batch of blocks, one per row of data symbol values.

    Precode, upsample into guard zeros, shape with g, apply the
    nonlinearity, filter with h, take the output grid, then add noise.
    With a single-tap receiver at the output rate the sampled noise is
    white, so it is drawn there directly; otherwise white simulation-rate
    noise passes through the (unit-energy) receiver filter.  The lag-0
    variance is the configured one in both cases.  Noise is drawn row after
    row, so a batch consumes the generator as its rows one at a time do.

    The returned batch holds the emitted symbols, which are what detectors
    target, and each row's average shaped-waveform power on the simulation
    grid.
    """
    cfg = chan.config
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.shape[-1] == 0:
        raise ValueError(Blocks.SHAPE_ERROR)
    x_emit = (differential_precode(x_rows, cfg.alphabet)
              if cfg.precoding == "differential-phase" else x_rows.copy())
    b, n = x_emit.shape
    g_sym = chan.guard_symbols
    fine = np.zeros((b, (n + 2 * g_sym) * cfg.n_sim), dtype=chan.g.taps.dtype)
    fine[:, g_sym * cfg.n_sim:(g_sym + n) * cfg.n_sim:cfg.n_sim] = x_emit
    shaped = chan.g.apply_same(fine)
    z = chan.h.apply_same(cfg.nonlinearity(shaped))
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite sample after filtering")

    idx = _output_grid_indices(n, chan)
    direct = len(chan.h) == 1 and cfg.decimation == 1
    noisy = cfg.noise_variance > 0.0
    if noisy:
        if rng is None:
            raise ValueError("rng required when noise variance > 0")
        sigma = np.sqrt(cfg.noise_variance)
        w = sigma * rng.standard_normal((b, len(idx) if direct else z.shape[1]))
        if not direct:
            z = z + chan.h.apply_same(w)
    # without guard symbols the first grid indices fall before the waveform
    ok = idx >= 0
    y = np.zeros((b, len(idx)), dtype=z.dtype)
    y[:, ok] = z[:, idx[ok]]
    if noisy and direct:
        y = y + w * np.abs(chan.h.taps[0])
    p_tx = np.sum(np.abs(shaped) ** 2, axis=1) / (n * cfg.n_sim)
    return Blocks(x=x_emit, y=y, p_tx=p_tx)


def draw_symbols(chan: DiscreteChannel, size, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. data symbols at the channel's scaled levels; size is a
    symbol count or an array shape."""
    return chan.levels[rng.integers(0, chan.config.alphabet.size, size=size)]


def random_block(chan: DiscreteChannel, n: int,
                 rng: np.random.Generator) -> Blocks:
    """Draw uniform data symbols and simulate a batch of one block."""
    return simulate_batch(chan, draw_symbols(chan, (1, n), rng), rng)
