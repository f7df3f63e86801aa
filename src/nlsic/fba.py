"""Exact and mismatched forward-backward APP detection on a symbol trellis.

The auxiliary channel truncates the true pipeline to a finite symbol memory:
the noiseless mean of each observation chunk is computed by running the real
transmit/receive chain on the local symbol window with zeros outside.  With
the window covering the full filter span the factorized likelihood equals the
true one and the forward-backward recursions return exact posteriors; with a
shorter window they define the mismatched detector used when the state space
would otherwise explode.

Observation chunks follow the sampling convention of the simulator: the
chunk of symbol kappa is the n_os samples ending at the symbol's center
sample.  With centered filters a chunk depends on `future` symbols past its
own, so the trellis runs that many guard-zero flush steps at the end of each
block and zeroes out-of-range window slots at the edges, which reproduces the
transmitted guard zeros exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .apps import AppMatrix, MultCounter
from .channel import DiscreteChannel
from .sic import StageView

LOG2PI = np.log(2.0 * np.pi)


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """log-sum-exp with max-star stabilization; all -inf rows stay -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - safe), axis=axis)) + np.squeeze(safe, axis=axis)
    return np.where(np.isfinite(np.squeeze(m, axis=axis)), out, -np.inf)


class AuxChannel:
    """Truncated-memory Gaussian auxiliary channel over the true pipeline.

    Attributes:
        memory: symbol memory of the trellis state.
        future: symbols after the current one that a chunk may depend on.
        sigma2: noise variance per output sample.
        mu_table: (M^memory, M, n_os) branch means for pure-alphabet windows.
    """

    def __init__(self, chan: DiscreteChannel, memory: int,
                 future: Optional[int] = None, table_budget: int = 1 << 22,
                 build_table: bool = True):
        if memory < 0:
            raise ValueError("memory must be >= 0")
        cfg = chan.config
        if cfg.noise_kind != "real":
            raise NotImplementedError("trellis detection implemented for real noise")
        self.chan = chan
        self.memory = int(memory)
        self.m_symbols = cfg.alphabet.size
        self.n_os = cfg.n_os
        self.sigma2 = cfg.noise_variance if cfg.noise_variance > 0 else 1.0
        self.levels = chan.levels.copy()

        span = chan.g.half_len + chan.h.half_len
        f_true = span // cfg.n_sim
        p_true = (span + cfg.n_sim - cfg.decimation) // cfg.n_sim
        self._exact_span = f_true + p_true
        if future is None:
            if memory >= self._exact_span or self._exact_span == 0:
                future = f_true
            else:
                future = min(f_true, (memory * f_true) // self._exact_span)
        if not 0 <= future <= memory or (memory > 0 and future > memory):
            raise ValueError(f"future span {future} incompatible with memory {memory}")
        self.future = int(future)

        self._build_maps()
        self._edge_cache: dict = {}
        if build_table:
            table_entries = self.m_symbols ** (memory + 1) * self.n_os
            if table_entries > table_budget:
                raise ValueError(
                    f"mean table needs {table_entries} entries, budget is {table_budget}")
            digits = self._all_digits()
            self.mu_table = self.mean_contexts(self.levels[digits]).reshape(
                self.n_states, self.m_symbols, self.n_os)
        else:
            # sampler-only use: branch means are evaluated on demand
            self.mu_table = None

    # -- geometry -----------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.m_symbols ** self.memory

    @property
    def window(self) -> int:
        return self.memory + 1

    @property
    def is_exact(self) -> bool:
        """True when the window covers the full combined filter span."""
        return self.memory >= self._exact_span

    def _build_maps(self):
        """Linear maps realizing the truncated pipeline for one chunk.

        s = ctx @ S_map.T gives the shaping-filter output on the fine grid
        around the chunk, the nonlinearity acts pointwise, and
        mu = xi(s) @ H_map.T applies the receiver filter at the chunk's
        output-grid positions.
        """
        chan, cfg = self.chan, self.chan.config
        w = self.window
        q0 = w - 1 - self.future
        f_pos = cfg.n_sim * q0 - cfg.n_sim + cfg.decimation * np.arange(1, self.n_os + 1)
        z_lo = f_pos[0] - chan.h.half_len
        z_hi = f_pos[-1] + chan.h.half_len
        z_pos = np.arange(z_lo, z_hi + 1)

        off_g = z_pos[:, None] - cfg.n_sim * np.arange(w)[None, :]
        s_map = np.zeros(off_g.shape, dtype=chan.g.taps.dtype)
        ok = np.abs(off_g) <= chan.g.half_len
        s_map[ok] = chan.g.taps[chan.g.center + off_g[ok]]

        off_h = f_pos[:, None] - z_pos[None, :]
        h_map = np.zeros(off_h.shape, dtype=chan.h.taps.dtype)
        ok = np.abs(off_h) <= chan.h.half_len
        h_map[ok] = chan.h.taps[chan.h.center + off_h[ok]]

        self._s_map = s_map
        self._h_map = h_map

    def _all_digits(self) -> np.ndarray:
        """Base-M digit expansion of every (state, input) pair, oldest first."""
        m, w = self.m_symbols, self.window
        flat = np.arange(self.n_states * m)
        return (flat[:, None] // m ** (w - 1 - np.arange(w))[None, :]) % m

    # -- branch means ---------------------------------------------------------

    def mean_contexts(self, contexts: np.ndarray,
                      counter: Optional[MultCounter] = None) -> np.ndarray:
        """Noiseless chunk means for symbol windows (C, memory+1), oldest
        symbol first; the chunk belongs to the window's (future+1)-last slot."""
        contexts = np.atleast_2d(np.asarray(contexts, dtype=np.float64))
        s = contexts @ self._s_map.T
        z = self.chan.config.nonlinearity(s)
        mu = z @ self._h_map.T
        if counter is not None:
            c = contexts.shape[0]
            nz = self._s_map.shape[0]
            counter.add("aux-shaping", c * nz * self.window)
            counter.add("aux-nonlinearity",
                        c * nz * self.chan.config.nonlinearity.mults_per_sample)
            counter.add("aux-receiver", c * self.n_os * nz)
        if np.iscomplexobj(mu):
            if not np.allclose(mu.imag, 0.0, atol=1e-12):
                raise NotImplementedError("complex-valued chunk means not supported")
            mu = mu.real
        return mu

    def masked_mu(self, zeros_left: int, zeros_right: int, input_zeroed: bool) -> np.ndarray:
        """Branch means with out-of-range window slots forced to zero, as at
        block edges and during flush steps.  Cached per mask pattern."""
        if zeros_left == 0 and zeros_right == 0 and not input_zeroed:
            return self.mu_table
        key = (zeros_left, zeros_right, input_zeroed)
        cached = self._edge_cache.get(key)
        if cached is None:
            vals = self.levels[self._all_digits()]
            if zeros_left:
                vals[:, :zeros_left] = 0.0
            if input_zeroed:
                vals[:, -1] = 0.0
            if zeros_right:
                vals[:, self.memory - zeros_right:self.memory] = 0.0
            cached = self.mean_contexts(vals).reshape(
                self.n_states, self.m_symbols, self.n_os)
            self._edge_cache[key] = cached
        return cached


def build_aux_channel(chan: DiscreteChannel, memory: int,
                      future: Optional[int] = None,
                      table_budget: int = 1 << 22,
                      build_table: bool = True) -> AuxChannel:
    """Deterministic branch-mean table over the true pipeline; exact when the
    memory covers the combined filter span.  Table-free channels (for the
    sampler, whose point is avoiding the exponential table) evaluate means
    on demand and cannot drive the trellis recursions."""
    return AuxChannel(chan, memory, future=future, table_budget=table_budget,
                      build_table=build_table)


# ---------------------------------------------------------------------------
# Forward/backward recursions


@dataclass
class _TrellisRun:
    """Log-domain quantities of one pass over a block."""

    log_alpha: list        # normalized log alpha after each step
    alpha_offsets: np.ndarray
    log_gamma: list        # per-step (n_states, M) branch metrics incl. priors
    log_z: float           # total log likelihood of the pass


def _priors_for_step(aux: AuxChannel, kappa: int, n: int, pin: np.ndarray) -> np.ndarray:
    m = aux.m_symbols
    lp = np.full(m, -np.inf)
    if kappa > n:
        lp[0] = 0.0           # guard-zero flush input, known with certainty
    elif pin[kappa - 1] >= 0:
        lp[pin[kappa - 1]] = 0.0
    else:
        lp[:] = -np.log(m)
    return lp


def _step_mu(aux: AuxChannel, kappa: int, n: int) -> np.ndarray:
    zl = min(max(aux.memory - kappa + 1, 0), aux.memory)
    zr = min(max(kappa - 1 - n, 0), aux.memory)
    return aux.masked_mu(zl, zr, input_zeroed=kappa > n)


def _forward(aux: AuxChannel, y: np.ndarray, n: int, pin: np.ndarray,
             counter: Optional[MultCounter] = None,
             keep_gamma: bool = False) -> _TrellisRun:
    if aux.mu_table is None:
        raise ValueError("auxiliary channel was built without the mean table")
    m, w = aux.m_symbols, aux.n_states
    n_os, f = aux.n_os, aux.future
    inv2s = 1.0 / (2.0 * aux.sigma2)
    const = -0.5 * n_os * (LOG2PI + np.log(aux.sigma2))
    steps = n + f

    log_alpha = np.full(w, -np.inf)
    log_alpha[0] = 0.0
    alphas, offsets, gammas = [], np.zeros(steps), []
    log_z = 0.0
    for kappa in range(1, steps + 1):
        lg = np.broadcast_to(_priors_for_step(aux, kappa, n, pin), (w, m)).copy()
        if kappa > f:
            q = kappa - f
            ym = y[n_os * (q - 1):n_os * q]
            mu = _step_mu(aux, kappa, n)
            diff = ym[None, None, :] - mu
            lg += -np.sum(diff * diff, axis=2) * inv2s + const
            if counter is not None:
                counter.add("metric", 2 * n_os * w * m)
        trans = log_alpha[:, None] + lg
        if counter is not None:
            counter.add("forward", w * m)
        new_alpha = _lse(trans.reshape(m, w), axis=0)
        peak = np.max(new_alpha)
        if not np.isfinite(peak):
            raise RuntimeError(f"inconsistent pinning: no surviving path at step {kappa}")
        log_alpha = new_alpha - peak
        log_z += peak
        offsets[kappa - 1] = peak
        alphas.append(log_alpha)
        if keep_gamma:
            gammas.append(lg)
    log_z += _lse(log_alpha[None, :], axis=1)[0]
    return _TrellisRun(log_alpha=alphas, alpha_offsets=offsets,
                       log_gamma=gammas, log_z=float(log_z))


def _pin_array(n: int, view: Optional[StageView], aux: AuxChannel) -> np.ndarray:
    pin = np.full(n, -1, dtype=int)
    if view is not None and len(view.known_idx) > 0:
        pin[view.known_idx] = aux.chan.symbol_indices(view.known_val)
    return pin


def fba_app(aux: AuxChannel, y: np.ndarray, view: StageView,
            positions: Optional[np.ndarray] = None,
            counter: Optional[MultCounter] = None) -> AppMatrix:
    """Symbol-wise APPs by log-domain forward-backward recursions.

    Known symbols of earlier stages are pinned: trellis branches carrying a
    different value get -inf metric.  Rows are returned for `positions`
    (default: the current stage's targets, ascending); a pinned position
    yields an exact point mass.
    """
    n = view.plan.n
    if len(y) != aux.n_os * n:
        raise ValueError(f"expected {aux.n_os * n} observations, got {len(y)}")
    if positions is None:
        positions = view.targets
    positions = np.asarray(positions, dtype=int)
    pin = _pin_array(n, view, aux)

    run = _forward(aux, y, n, pin, counter=counter, keep_gamma=True)
    m, w = aux.m_symbols, aux.n_states
    steps = n + aux.future

    next_state = (np.arange(w)[:, None] * m + np.arange(m)[None, :]) % w
    want = {int(p) + 1 for p in positions}
    log_beta = np.zeros(w)
    app_rows = {}
    for kappa in range(steps, 0, -1):
        lg = run.log_gamma[kappa - 1]
        contrib = lg + log_beta[next_state]
        if kappa in want:
            la_prev = run.log_alpha[kappa - 2] if kappa >= 2 else \
                np.where(np.arange(w) == 0, 0.0, -np.inf)
            app_rows[kappa] = _lse(la_prev[:, None] + contrib, axis=0)
            if counter is not None:
                counter.add("app", 2 * w * m)
        log_beta = _lse(contrib, axis=1)
        log_beta = log_beta - np.max(log_beta)
        if counter is not None:
            counter.add("backward", w * m)

    logp = np.empty((len(positions), m))
    for i, p in enumerate(positions):
        row = app_rows[int(p) + 1]
        if not np.any(np.isfinite(row)):
            raise RuntimeError(f"inconsistent pinning: empty posterior at position {p}")
        logp[i] = row
    return AppMatrix.from_logp(logp, positions)


def fba_logq(aux: AuxChannel, y: np.ndarray, n: int,
             x_digits: Optional[np.ndarray] = None,
             counter: Optional[MultCounter] = None) -> float:
    """Total log q(y | x) (all symbols pinned) or log q(y) (x_digits=None,
    uniform input marginalization) under the auxiliary channel, in nats."""
    pin = np.full(n, -1, dtype=int)
    if x_digits is not None:
        pin[:] = np.asarray(x_digits, dtype=int)
    run = _forward(aux, y, n, pin, counter=counter, keep_gamma=False)
    return run.log_z


def fba_ub(aux: AuxChannel, blocks, counter: Optional[MultCounter] = None):
    """Monte-Carlo auxiliary-channel upper bound on the block information
    rate: average of (log2 q(y|x) - log2 q(y)) / n over blocks.

    Returns (bits per channel use, jackknife standard error).
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    per_block = np.empty(len(blocks))
    for i, blk in enumerate(blocks):
        n = len(blk.x)
        digits = aux.chan.symbol_indices(blk.x)
        log_qxy = fba_logq(aux, blk.y, n, x_digits=digits, counter=counter)
        log_qy = fba_logq(aux, blk.y, n, x_digits=None, counter=counter)
        per_block[i] = (log_qxy - log_qy) / (n * np.log(2.0))
    return float(np.mean(per_block)), jackknife_stderr(per_block)


def jackknife_stderr(values: np.ndarray) -> float:
    """Leave-one-out jackknife standard error of the sample mean."""
    values = np.asarray(values, dtype=np.float64)
    k = len(values)
    if k < 2:
        return float("nan")
    total = values.sum()
    loo = (total - values) / (k - 1)
    return float(np.sqrt((k - 1) / k * np.sum((loo - loo.mean()) ** 2)))


def count_fba_multiplications(aux: AuxChannel, n: int, n_stages: int) -> float:
    """Real multiplications per APP estimate of an S-stage FBA receiver.

    Each stage runs one full trellis pass (branch metrics on the n emitting
    steps, forward and backward updates on all n+future steps) and combines
    APPs at its n/S target positions; the total over stages is divided by
    the n APPs produced.  Scales exactly with |A|^(memory+1) and is exactly
    affine-linear in the stage count.
    """
    w = aux.m_symbols ** (aux.memory + 1)
    per_stage = n * 2 * aux.n_os * w + 2 * (n + aux.future) * w
    app_total = n * 2 * w
    return (n_stages * per_stage + app_total) / n
