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
from numpy.lib.stride_tricks import sliding_window_view

from .apps import AppMatrix, MultCounter, block_slices
from .channel import Blocks, DiscreteChannel
from .sic import StageView

LOG2PI = np.log(2.0 * np.pi)


def _sum_in_numpy_order(parts) -> np.ndarray:
    """Elementwise sum of equal-shape arrays, rounded as numpy's sum along a
    contiguous axis of these terms rounds: sequential below 8 terms, eight
    interleaved accumulators combined pairwise up to 128 (the rest added
    after them), and two halves split at a multiple of 8 beyond."""
    n = len(parts)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _sum_in_numpy_order(parts[:half]) + _sum_in_numpy_order(parts[half:])
    if n < 8:
        total, rest = parts[0], parts[1:]
    else:
        acc = parts[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            acc = [a + p for a, p in zip(acc, parts[i:i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        rest = parts[tail:]
    for p in rest:
        total = total + p
    return total


def _sum_over_inputs(e: np.ndarray, axis: int) -> np.ndarray:
    """Sum of input-major (B, M, w) terms over the M inputs, in numpy's
    order for a contiguous axis."""
    return _sum_in_numpy_order(list(e.swapaxes(0, axis)))


def _lse(a: np.ndarray, axis: int, total=np.add.reduce) -> np.ndarray:
    """log-sum-exp with max-star stabilization; all -inf rows stay -inf.
    `total(e, axis)` sums the exponentials along the axis."""
    m = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(m)
    safe = np.where(finite, m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(total(np.exp(a - safe), axis)) + safe.squeeze(axis)
    return np.where(finite.squeeze(axis), out, -np.inf)


# Entries the trellis mean table may hold; read at each check.
TABLE_BUDGET = 1 << 22


def check_table_size(m_symbols: int, memory: int, n_os: int) -> None:
    """Raise ValueError unless a trellis of this memory is well formed and
    its mean table (M^(memory+1) branches of n_os means) fits TABLE_BUDGET."""
    if memory < 0:
        raise ValueError("memory must be >= 0")
    entries = m_symbols ** (memory + 1) * n_os
    if entries > TABLE_BUDGET:
        raise ValueError(f"mean table needs {entries} entries, budget is {TABLE_BUDGET}")


class AuxChannel:
    """Truncated-memory Gaussian auxiliary channel over the true pipeline.

    Attributes:
        memory: symbol memory of the trellis state.
        future: symbols after the current one that a chunk may depend on.
        sigma2: noise variance per output sample.
        mu_table: (n_os, M^memory, M) branch means for pure-alphabet windows,
            sample-major: mu_table[j, state, input] is sample j of the chunk.
    """

    def __init__(self, chan: DiscreteChannel, memory: int,
                 future: Optional[int] = None, build_table: bool = True):
        if memory < 0:
            raise ValueError("memory must be >= 0")
        cfg = chan.config
        self.chan = chan
        self.memory = int(memory)
        self.m_symbols = cfg.alphabet.size
        self.n_os = cfg.n_os
        self.sigma2 = cfg.noise_variance if cfg.noise_variance > 0 else 1.0
        self.levels = chan.levels.copy()

        if future is None:
            # a shorter window keeps its share of the exact look-ahead
            future = chan.future if self.is_exact else \
                memory * chan.future // chan.memory
        if not 0 <= future <= memory:
            raise ValueError(f"future span {future} incompatible with memory {memory}")
        self.future = int(future)

        self._build_maps()
        self._edge_cache: dict = {}
        if build_table:
            check_table_size(self.m_symbols, memory, self.n_os)
            self.mu_table = self._branch_means(self.levels[self._all_digits()])
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
        return self.memory >= self.chan.memory

    def _build_maps(self):
        """Linear maps realizing the truncated pipeline for one chunk.

        s = S_map @ ctx gives the shaping-filter output on the fine grid
        around the chunk, the nonlinearity acts pointwise, and
        mu = H_map @ xi(s) applies the receiver filter at the chunk's
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
        s_map[ok] = chan.g.taps[chan.g.half_len + off_g[ok]]

        off_h = f_pos[:, None] - z_pos[None, :]
        h_map = np.zeros(off_h.shape, dtype=chan.h.taps.dtype)
        ok = np.abs(off_h) <= chan.h.half_len
        h_map[ok] = chan.h.taps[chan.h.half_len + off_h[ok]]

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
        """Noiseless chunk means, (n_os, C), of C symbol windows given
        feature-major as (memory+1, C), oldest symbol first; the chunk
        belongs to the window's (future+1)-last slot."""
        contexts = np.asarray(contexts, dtype=np.float64)
        s = self._s_map @ contexts
        z = self.chan.config.nonlinearity(s)
        mu = self._h_map @ z
        if counter is not None:
            c = contexts.shape[1]
            nz = self._s_map.shape[0]
            counter.add("aux-shaping", c * nz * self.window)
            counter.add("aux-nonlinearity",
                        c * nz * self.chan.config.nonlinearity.mults_per_sample)
            counter.add("aux-receiver", c * self.n_os * nz)
        return mu

    def _branch_means(self, windows: np.ndarray) -> np.ndarray:
        """(n_os, M^memory, M) table of the (M^memory * M, memory+1) windows
        of every (state, input) pair."""
        return self.mean_contexts(windows.T).reshape(
            self.n_os, self.n_states, self.m_symbols)

    def masked_mu(self, zeros_left: int, zeros_right: int, input_zeroed: bool) -> np.ndarray:
        """Branch means, laid out as mu_table, with out-of-range window slots
        forced to zero, as at block edges and during flush steps.  Cached per
        mask pattern."""
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
            cached = self._branch_means(vals)
            self._edge_cache[key] = cached
        return cached


def build_aux_channel(chan: DiscreteChannel, memory: int,
                      future: Optional[int] = None,
                      build_table: bool = True) -> AuxChannel:
    """Deterministic branch-mean table over the true pipeline; exact when the
    memory covers the combined filter span.  Table-free channels (for the
    sampler, whose point is avoiding the exponential table) evaluate means
    on demand and cannot drive the trellis recursions."""
    return AuxChannel(chan, memory, future=future, build_table=build_table)


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


def _log_density(aux: AuxChannel, c: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Gaussian log densities of observation samples c against branch means
    mu, both sample-major, (n_os, ...), and broadcast together.  The squared
    differences are whole arrays, one per sample, summed over the samples in
    numpy's order."""
    sq = []
    for c_j, mu_j in zip(c, mu):
        d = c_j - mu_j
        d *= d
        sq.append(d)
    metric = _sum_in_numpy_order(sq)
    metric *= -1.0 / (2.0 * aux.sigma2)
    metric += -0.5 * aux.n_os * (LOG2PI + np.log(aux.sigma2))
    return metric


def _step_metrics(aux: AuxChannel, chunks: np.ndarray, prior: np.ndarray,
                  kappa: int) -> np.ndarray:
    """Log branch metrics, priors included, of trellis step kappa, as
    (B, n_states, M), or (B, 1, M) for the prior alone before the first chunk.

    chunks: (B, n, n_os) observation chunks; prior: _priors' (B, n+future, M).
    The densities are taken against the sample-major means as whole
    (B, n_states*M) arrays.
    """
    b, n, n_os = chunks.shape
    lg = prior[:, kappa - 1, None, :]
    if kappa <= aux.future:
        return lg
    c = chunks[:, kappa - aux.future - 1].T[:, :, None]
    mu = _step_mu(aux, kappa, n).reshape(n_os, -1)
    metric = _log_density(aux, c, mu)
    return lg + metric.reshape(b, aux.n_states, aux.m_symbols)


def _forward(aux: AuxChannel, y: np.ndarray, pin: np.ndarray,
             counter: Optional[MultCounter] = None, keep: bool = False):
    """Normalized forward recursion over B blocks at once.

    y: (B, n_os*n) observations; pin: (B, n) symbol indices, -1 for free
    positions.  Returns (log_z, log_alpha): the (B,) total log likelihoods
    and, when `keep`, the per-step normalized log alpha (steps, B, n_states),
    otherwise None.  Branch metrics are not kept: the backward pass
    recomputes them.

    Each step's metrics come from _step_metrics; the sum over a new state's
    M predecessors is numpy's along the middle axis of (B, M, n_states).
    When no path survives a step, raises FloatingPointError if every branch
    metric of a dead block overflowed, priors aside, and RuntimeError
    otherwise.
    """
    if aux.mu_table is None:
        raise ValueError("auxiliary channel was built without the mean table")
    b, n = pin.shape
    m, w = aux.m_symbols, aux.n_states
    n_os, f = aux.n_os, aux.future
    steps = n + f
    prior = _priors(aux, pin)
    chunks = y.reshape(b, n, n_os)

    log_alpha = np.full((b, w), -np.inf)
    log_alpha[:, 0] = 0.0
    log_z = np.zeros(b)
    alphas = np.empty((steps, b, w)) if keep else None
    # a squared difference that overflows gives a -inf branch metric, legal
    # as long as some path survives
    with np.errstate(over="ignore"):
        for kappa in range(1, steps + 1):
            lg = _step_metrics(aux, chunks, prior, kappa)
            if counter is not None and kappa > f:
                counter.add("metric", 2 * n_os * w * m * b)
            trans = log_alpha[:, :, None] + lg
            if counter is not None:
                counter.add("forward", w * m * b)
            new_alpha = _lse(trans.reshape(b, m, w), axis=1)
            peak = new_alpha.max(axis=1)
            dead = ~np.isfinite(peak)
            if np.any(dead):
                unpinned = _step_metrics(aux, chunks, np.zeros_like(prior), kappa)
                if np.any(dead & ~np.isfinite(unpinned).any(axis=(1, 2))):
                    raise FloatingPointError(
                        f"trellis step {kappa}: branch metric overflow, no "
                        f"branch is finite before pinning")
                raise RuntimeError(
                    f"inconsistent pinning: no surviving path at step {kappa}")
            log_alpha = new_alpha - peak[:, None]
            log_z += peak
            if keep:
                alphas[kappa - 1] = log_alpha
    log_z += _lse(log_alpha, axis=1)
    return log_z, alphas


def _backward_apps(aux: AuxChannel, y: np.ndarray, pin: np.ndarray,
                   log_alpha: np.ndarray, groups: list,
                   counter: Optional[MultCounter] = None) -> np.ndarray:
    """Backward recursion combined with the stored forward messages into
    unnormalized log APPs, (B, N, M).

    y, pin and log_alpha are _forward's inputs and kept output.  Each step's
    branch metrics are recomputed by _step_metrics from the same inputs, so
    they are the bits the forward pass used.  groups: (lo, hi, positions)
    for disjoint row ranges, rows lo..hi-1 taking APPs at the N ascending
    serial 0-based `positions`; a step combines APPs only on the rows of the
    groups with a target there.

    Each step gathers the backward messages input-major, (B, M, n_states),
    and sums over the M inputs in numpy's order for a contiguous axis
    (_sum_in_numpy_order); at a target step the APP sums over states along
    the middle axis of a contiguous (rows, n_states, M) copy.
    """
    steps, b, w = log_alpha.shape
    m, n = aux.m_symbols, pin.shape[1]
    prior = _priors(aux, pin)
    chunks = y.reshape(b, n, aux.n_os)
    # next_state[a, s]: the state that input a leads to from state s
    next_state = (np.arange(w)[None, :] * m + np.arange(m)[:, None]) % w
    start = np.where(np.arange(w) == 0, 0.0, -np.inf)
    # walking back, the column of each group's next target
    cols = [len(positions) - 1 for _, _, positions in groups]
    log_beta = np.zeros((b, w))
    logp = np.empty((b, len(groups[0][2]), m))
    with np.errstate(over="ignore"):
        for kappa in range(steps, 0, -1):
            lg = _step_metrics(aux, chunks, prior, kappa)
            if counter is not None and kappa > aux.future:
                counter.add("recomputed-metric", 2 * aux.n_os * w * m * b)
            contrib = log_beta.take(next_state, axis=1)
            contrib += lg.transpose(0, 2, 1)
            for g, (lo, hi, positions) in enumerate(groups):
                col = cols[g]
                if col < 0 or positions[col] + 1 != kappa:
                    continue
                cols[g] -= 1
                la_prev = log_alpha[kappa - 2, lo:hi] if kappa >= 2 else start[None, :]
                by_state = np.ascontiguousarray(contrib[lo:hi].transpose(0, 2, 1))
                logp[lo:hi, col] = _lse(la_prev[:, :, None] + by_state, axis=1)
                if counter is not None:
                    counter.add("app", 2 * w * m * (hi - lo))
            log_beta = _lse(contrib, axis=1, total=_sum_over_inputs)
            log_beta = log_beta - log_beta.max(axis=1, keepdims=True)
            if counter is not None:
                counter.add("backward", w * m * b)
    empty = ~np.any(np.isfinite(logp), axis=2)
    if np.any(empty):
        row, col = np.argwhere(empty)[0]
        p = next(pos[col] for lo, hi, pos in groups if lo <= row < hi)
        raise RuntimeError(f"inconsistent pinning: empty posterior at position {p}")
    return logp


def fba_point_apps(aux: AuxChannel, ys: list, views: list,
                   counter: Optional[MultCounter] = None) -> list:
    """Symbol-wise APPs at the targets of every block of several SIC stages,
    typically all stages of a sweep point, by one run of log-domain
    forward-backward recursions over all their blocks at once.  Returns one
    AppMatrix per view.

    ys[i]: (B_i, n_os*n) observations of the blocks views[i] describes; the
    views share one plan.  Each row is pinned to the known symbols of its
    own stage's earlier stages: trellis branches carrying a different value
    get -inf metric.  The stages' rows are stacked, in order, and run in
    slices of bounded memory, which may cut across stages; a stage's APPs
    are combined only on its own rows, at its own target steps.
    """
    plan = views[0].plan
    if any(view.plan != plan for view in views):
        raise ValueError("the stages of one trellis pass must share a SIC plan")
    y = np.concatenate([view.observations(y_i, aux.n_os)
                        for y_i, view in zip(ys, views)])
    bounds = np.cumsum([0] + [len(view.known_val) for view in views])
    pin = np.full((len(y), plan.n), -1, dtype=int)
    for lo, view in zip(bounds, views):
        pin[lo:lo + len(view.known_val), view.known_idx] = \
            aux.chan.symbol_indices(view.known_val)

    # per block: the forward messages and priors of all steps, the log
    # APPs, and one step's branch metrics with the temporaries that combine
    # them
    m, w, steps = aux.m_symbols, aux.n_states, plan.n + aux.future
    stored = 8 * ((w + m) * steps + m * plan.per_stage
                  + w * m * (aux.n_os + 5))
    logp = np.empty((len(y), plan.per_stage, m))
    for lo, hi in block_slices(len(y), stored):
        groups = [(max(a, lo) - lo, min(b, hi) - lo, view.targets)
                  for a, b, view in zip(bounds, bounds[1:], views)
                  if a < hi and b > lo]
        _, log_alpha = _forward(aux, y[lo:hi], pin[lo:hi], counter=counter,
                                keep=True)
        logp[lo:hi] = _backward_apps(aux, y[lo:hi], pin[lo:hi], log_alpha,
                                     groups, counter)
    return [AppMatrix.from_logp(logp[a:b], view.targets)
            for a, b, view in zip(bounds, bounds[1:], views)]


def fba_apps(aux: AuxChannel, y: np.ndarray, view: StageView,
             counter: Optional[MultCounter] = None) -> AppMatrix:
    """Symbol-wise APPs at the stage targets of every block of one SIC
    stage: fba_point_apps on that stage alone.

    y: (B, n_os*n) observations of the blocks `view` describes.
    """
    return fba_point_apps(aux, [y], [view], counter)[0]


def _path_log_z(aux: AuxChannel, y: np.ndarray, pin: np.ndarray,
                counter: Optional[MultCounter] = None) -> np.ndarray:
    """log q(y|x) of fully pinned rows, (B,): the sum, step after step, of
    the branch metrics along each row's one path.  For such a row _forward's
    log_z adds the same metrics in the same order, since 0 + x and the
    log-sum-exp of one finite term are exact, so the bits agree.  A metric
    on the path that is not finite raises FloatingPointError naming its
    step.

    y: (B, n_os*n) observations; pin: (B, n) symbol indices, none free.
    """
    b, n = pin.shape
    m, mem, f, n_os = aux.m_symbols, aux.memory, aux.future, aux.n_os
    steps = n + f
    # each step's window of memory+1 symbol indices, oldest first, guard
    # zeros before and after the block, read as its base-M branch number
    digits = np.zeros((b, mem + steps), dtype=int)
    digits[:, mem:mem + n] = pin
    branch = sliding_window_view(digits, mem + 1, axis=1) @ \
        m ** np.arange(mem, -1, -1)
    # the means of each emitting step's branch, (n_os, B, n): the plain
    # table, and the masked one at the edge steps
    mu = aux.mu_table.reshape(n_os, -1)[:, branch[:, f:]]
    for kappa in range(f + 1, steps + 1):
        if kappa <= mem or kappa > n:
            edge = _step_mu(aux, kappa, n).reshape(n_os, -1)
            mu[:, :, kappa - f - 1] = edge[:, branch[:, kappa - 1]]
    with np.errstate(over="ignore"):
        metric = _log_density(aux, y.reshape(b, n, n_os).transpose(2, 0, 1), mu)
    if counter is not None:
        counter.add("path-metric", 2 * n_os * n * b)
    dead = ~np.isfinite(metric).all(axis=0)
    if np.any(dead):
        raise FloatingPointError(
            f"trellis step {f + 1 + np.flatnonzero(dead)[0]}: branch metric "
            f"overflow on the pinned path")
    # accumulate adds strictly in sequence, as the forward pass's log_z does
    return np.add.accumulate(metric, axis=1)[:, -1]


def fba_ub(aux: AuxChannel, blocks: Blocks,
           counter: Optional[MultCounter] = None):
    """Monte-Carlo auxiliary-channel upper bound on the block information
    rate: average of (log2 q(y|x) - log2 q(y)) / n over the blocks.

    log q(y|x) is the sum of the branch metrics along the true path
    (_path_log_z); log q(y) marginalizes uniform inputs in one forward pass
    over a slice's blocks.
    Returns (bits per channel use, jackknife standard error).
    """
    if len(blocks) == 0:
        raise ValueError("need at least one block")
    n = blocks.x.shape[1]
    m, w, steps = aux.m_symbols, aux.n_states, n + aux.future
    per_block = np.empty(len(blocks))
    # per block, the largest of: the nearest-level search for its pins, two
    # (n, M) arrays; the true path's pins, digits, branches, means and
    # squared differences; and the free row's pins and priors with one
    # step's branch metrics and the temporaries that combine them
    stored = 8 * max(2 * m * n, (2 * aux.n_os + 4) * steps,
                     (m + 1) * steps + w * m * (aux.n_os + 5))
    for lo, hi in block_slices(len(blocks), stored):
        y = blocks.y[lo:hi]
        log_q = _forward(aux, y, np.full((hi - lo, n), -1), counter=counter)[0]
        log_qx = _path_log_z(aux, y, aux.chan.symbol_indices(blocks.x[lo:hi]),
                             counter)
        per_block[lo:hi] = (log_qx - log_q) / (n * np.log(2.0))
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
