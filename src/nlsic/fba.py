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

from typing import Optional

import numpy as np

from .apps import AppMatrix, MultCounter, block_slices
from .channel import DiscreteChannel
from .sic import StageView

LOG2PI = np.log(2.0 * np.pi)


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """log-sum-exp with max-star stabilization; all -inf rows stay -inf."""
    m = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(m)
    safe = np.where(finite, m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - safe).sum(axis=axis)) + safe.squeeze(axis)
    return np.where(finite.squeeze(axis), out, -np.inf)


TABLE_BUDGET = 1 << 22


def check_table_size(m_symbols: int, memory: int, n_os: int,
                     table_budget: int = TABLE_BUDGET) -> None:
    """Raise ValueError unless a trellis of this memory is well formed and
    its mean table (M^(memory+1) branches of n_os means) fits the budget."""
    if memory < 0:
        raise ValueError("memory must be >= 0")
    entries = m_symbols ** (memory + 1) * n_os
    if entries > table_budget:
        raise ValueError(f"mean table needs {entries} entries, budget is {table_budget}")


class AuxChannel:
    """Truncated-memory Gaussian auxiliary channel over the true pipeline.

    Attributes:
        memory: symbol memory of the trellis state.
        future: symbols after the current one that a chunk may depend on.
        sigma2: noise variance per output sample.
        mu_table: (M^memory, M, n_os) branch means for pure-alphabet windows.
    """

    def __init__(self, chan: DiscreteChannel, memory: int,
                 future: Optional[int] = None, table_budget: int = TABLE_BUDGET,
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
            check_table_size(self.m_symbols, memory, self.n_os, table_budget)
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
                      table_budget: int = TABLE_BUDGET,
                      build_table: bool = True) -> AuxChannel:
    """Deterministic branch-mean table over the true pipeline; exact when the
    memory covers the combined filter span.  Table-free channels (for the
    sampler, whose point is avoiding the exponential table) evaluate means
    on demand and cannot drive the trellis recursions."""
    return AuxChannel(chan, memory, future=future, table_budget=table_budget,
                      build_table=build_table)


# ---------------------------------------------------------------------------
# Forward/backward recursions over a leading block axis


def _step_mu(aux: AuxChannel, kappa: int, n: int) -> np.ndarray:
    zl = min(max(aux.memory - kappa + 1, 0), aux.memory)
    zr = min(max(kappa - 1 - n, 0), aux.memory)
    return aux.masked_mu(zl, zr, input_zeroed=kappa > n)


def _priors(aux: AuxChannel, pin: np.ndarray) -> np.ndarray:
    """(B, n+future, M) log priors: a pinned symbol is certain, a free one
    uniform, and every flush input is the guard zero."""
    b, n = pin.shape
    m = aux.m_symbols
    lp = np.full((b, n + aux.future, m), -np.inf)
    lp[:, n:, 0] = 0.0
    free = pin < 0
    lp[:, :n][free] = -np.log(m)
    rows, cols = np.nonzero(~free)
    lp[rows, cols, pin[rows, cols]] = 0.0
    return lp


def _forward(aux: AuxChannel, y: np.ndarray, pin: np.ndarray,
             counter: Optional[MultCounter] = None, keep: bool = False):
    """Normalized forward recursion over B blocks at once.

    y: (B, n_os*n) observations; pin: (B, n) symbol indices, -1 for free
    positions.  Returns (log_z, log_alpha, log_gamma): the (B,) total log
    likelihoods and, when `keep`, the per-step normalized log alpha
    (steps, B, n_states) and branch metrics incl. priors
    (steps, B, n_states, M); otherwise those two are None.
    """
    if aux.mu_table is None:
        raise ValueError("auxiliary channel was built without the mean table")
    b, n = pin.shape
    m, w = aux.m_symbols, aux.n_states
    n_os, f = aux.n_os, aux.future
    inv2s = 1.0 / (2.0 * aux.sigma2)
    const = -0.5 * n_os * (LOG2PI + np.log(aux.sigma2))
    steps = n + f
    prior = _priors(aux, pin)
    chunks = y.reshape(b, n, n_os)

    log_alpha = np.full((b, w), -np.inf)
    log_alpha[:, 0] = 0.0
    log_z = np.zeros(b)
    alphas = np.empty((steps, b, w)) if keep else None
    gammas = np.empty((steps, b, w, m)) if keep else None
    for kappa in range(1, steps + 1):
        lg = prior[:, kappa - 1, None, :]
        if kappa > f:
            diff = chunks[:, kappa - f - 1, None, None, :] - _step_mu(aux, kappa, n)
            lg = lg + (-(diff * diff).sum(axis=3) * inv2s + const)
            if counter is not None:
                counter.add("metric", 2 * n_os * w * m * b)
        trans = log_alpha[:, :, None] + lg
        if counter is not None:
            counter.add("forward", w * m * b)
        new_alpha = _lse(trans.reshape(b, m, w), axis=1)
        peak = new_alpha.max(axis=1)
        if not np.all(np.isfinite(peak)):
            raise RuntimeError(f"inconsistent pinning: no surviving path at step {kappa}")
        log_alpha = new_alpha - peak[:, None]
        log_z += peak
        if keep:
            alphas[kappa - 1] = log_alpha
            gammas[kappa - 1] = lg
    log_z += _lse(log_alpha, axis=1)
    return log_z, alphas, gammas


def _backward_apps(log_alpha: np.ndarray, log_gamma: np.ndarray,
                   positions: np.ndarray,
                   counter: Optional[MultCounter] = None) -> np.ndarray:
    """Backward recursion combined with the stored forward pass into
    unnormalized log APPs (B, len(positions), M)."""
    steps, b, w, m = log_gamma.shape
    next_state = (np.arange(w)[:, None] * m + np.arange(m)[None, :]) % w
    start = np.where(np.arange(w) == 0, 0.0, -np.inf)
    want = {int(p) + 1 for p in positions}
    log_beta = np.zeros((b, w))
    app_rows = {}
    for kappa in range(steps, 0, -1):
        contrib = log_gamma[kappa - 1] + log_beta[:, next_state]
        if kappa in want:
            la_prev = log_alpha[kappa - 2] if kappa >= 2 else start[None, :]
            app_rows[kappa] = _lse(la_prev[:, :, None] + contrib, axis=1)
            if counter is not None:
                counter.add("app", 2 * w * m * b)
        log_beta = _lse(contrib, axis=2)
        log_beta = log_beta - log_beta.max(axis=1, keepdims=True)
        if counter is not None:
            counter.add("backward", w * m * b)
    logp = np.empty((b, len(positions), m))
    for i, p in enumerate(positions):
        logp[:, i] = app_rows[int(p) + 1]
    empty = ~np.any(np.isfinite(logp), axis=2)
    if np.any(empty):
        p = positions[np.nonzero(empty)[1][0]]
        raise RuntimeError(f"inconsistent pinning: empty posterior at position {p}")
    return logp


def fba_apps(aux: AuxChannel, y: np.ndarray, view: StageView,
             counter: Optional[MultCounter] = None) -> AppMatrix:
    """Symbol-wise APPs at the stage targets of every block of one SIC
    stage, by log-domain forward-backward recursions run over all blocks at
    once.

    y: (B, n_os*n) observations of the blocks `view` describes.  Known
    symbols of earlier stages are pinned: trellis branches carrying a
    different value get -inf metric.
    """
    y = view.observations(y, aux.n_os)
    b, n = len(y), view.plan.n
    pin = np.full((b, n), -1, dtype=int)
    pin[:, view.known_idx] = aux.chan.symbol_indices(view.known_val)
    positions = view.targets

    # per block: one step's metric differences, and the branch metrics and
    # forward messages of all steps, kept for the backward pass
    m, w = aux.m_symbols, aux.n_states
    stored = 8 * w * (m * aux.n_os + (n + aux.future) * (m + 1))
    logp = np.empty((b, len(positions), m))
    for lo, hi in block_slices(b, stored):
        _, log_alpha, log_gamma = _forward(aux, y[lo:hi], pin[lo:hi],
                                           counter=counter, keep=True)
        logp[lo:hi] = _backward_apps(log_alpha, log_gamma, positions, counter)
    return AppMatrix.from_logp(logp, positions)


def fba_ub(aux: AuxChannel, blocks, counter: Optional[MultCounter] = None):
    """Monte-Carlo auxiliary-channel upper bound on the block information
    rate: average of (log2 q(y|x) - log2 q(y)) / n over blocks of one length.

    log q(y|x) pins every symbol, log q(y) marginalizes uniform inputs; a
    slice of k blocks runs both as one 2k-row forward pass.
    Returns (bits per channel use, jackknife standard error).
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    n = len(blocks[0].x)
    if any(len(blk.x) != n for blk in blocks):
        raise ValueError("upper-bound blocks must share one length")
    per_block = np.empty(len(blocks))
    # per block: one step's metric differences in its pinned and free rows
    step_bytes = 2 * 8 * aux.n_states * aux.m_symbols * aux.n_os
    for lo, hi in block_slices(len(blocks), step_bytes):
        part = blocks[lo:hi]
        k = len(part)
        y = np.stack([blk.y for blk in part])
        pin = np.full((2 * k, n), -1, dtype=int)
        pin[:k] = aux.chan.symbol_indices(np.stack([blk.x for blk in part]))
        log_z, _, _ = _forward(aux, np.concatenate([y, y]), pin, counter=counter)
        per_block[lo:hi] = (log_z[:k] - log_z[k:]) / (n * np.log(2.0))
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
