"""Bit-wise Gibbs sampling of symbol APPs under the truncated auxiliary channel.

Each chain resamples the unknown symbols one Gray-labelled bit at a time
from its conditional under the factorized auxiliary likelihood; only the
chunks whose windows contain the symbol are re-evaluated, so the per-bit
work stays local in the memory.  A sweep is a chromatic scan (Besag's
coding scheme): positions more than `memory` apart share no chunk window,
so the positions of one colour, position mod memory+1, are conditionally
independent given the rest of the block, and a batch of them is resampled
in one vectorised step, one bit after another.  Updates within a colour
commute, so a sweep equals a serial scan in colour order, whatever the step
size.  Post-burn-in symbol frequencies across all chains, with add-one
smoothing, form the APP estimate.  Pinned symbols are never resampled.

One call covers every block of a SIC stage, as one StageView and one
(B, n_os*n) observation array: the pinned positions are the same for all
blocks, so their chains sweep in lockstep as the columns of one state
array, in block slices of bounded memory, and the call returns one
AppMatrix of (B, N, M) PMFs at the stage targets.  Every chain owns a
generator spawned in block order and draws its uniforms one sweep at a
time, one per (unknown position, bit) in position order, so a block's APPs
do not depend on which blocks share its call.

The state is position-major: symbol values are an (n + 2W, C) array over
the C chains, W = memory+1, with W guard zeros on each side, so a window
slot outside the block reads a zero.  A colour step gathers its windows
feature-major, (W, chunks, sites, 2 candidates, C), and evaluates the
chunk means of all of them in two wide products (AuxChannel.mean_contexts);
per bit only the target slots are rewritten, and each candidate's metric
sums its squared differences plane by plane in one fixed order.

Chains are independent, so once a slice has FORK_UPDATES bit updates each
block's chains are cut into contiguous groups, one per CPU the caller has
to itself (see nlsic.parallel), and the groups sweep in forked workers;
smaller slices sweep in the calling process, where a fork would cost more
than it saves.  Generators and initial states are drawn in the calling
process; the groups' integer counts and multiplication tallies add up
exactly, so the APPs do not depend on the number of processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import parallel
from .apps import AppMatrix, MultCounter, block_slices
from .fba import AuxChannel, _sum_in_numpy_order
from .sic import StageView

# Chain windows (chains x chunks) per colour step; each is evaluated for
# both candidates of a bit, so a step holds twice as many context columns.
# Serial gibbs_apps on 2 blocks of 512 symbols (4-ASK, memory 3, 20 sweeps,
# one CPU) took 383, 344 and 376 ms at 2048, 4096 and 8192 windows with 32
# chains per block, 772, 611 and 612 ms with 64, and 129, 97 and 165 ms
# with 8: smaller steps pay more per-call overhead, and a whole colour
# class at once falls out of cache.
STEP_ROWS = 4096

# Bit updates a block slice needs before its chains are split across
# processes.  On 2 CPUs a split slice ran up to 3x slower below 60k updates,
# broke even near 250k and ran 1.5x faster from 500k on, whatever the chain
# count: a fork costs 5-20 ms, and half of each step's time does not shrink
# with fewer chains.
FORK_UPDATES = 1 << 19


@dataclass(frozen=True)
class GibbsConfig:
    memory: int
    n_iter: int
    n_par: int
    burn_in: int = 25

    def __post_init__(self):
        if not self.n_iter > self.burn_in >= 0:
            raise ValueError("need n_iter > burn_in >= 0")
        if self.n_par < 1:
            raise ValueError("need at least one chain")


def gray_labels(m_symbols: int) -> np.ndarray:
    """Binary-reflected Gray label of each symbol index (ascending levels)."""
    i = np.arange(m_symbols)
    return i ^ (i >> 1)


def gray_to_index(m_symbols: int) -> np.ndarray:
    labels = gray_labels(m_symbols)
    inv = np.empty(m_symbols, dtype=int)
    inv[labels] = np.arange(m_symbols)
    return inv


def _chunk_windows(aux: AuxChannel, pos: int, n: int):
    """Chunks (1-based) whose symbol window contains 0-based position `pos`,
    and the window's symbol positions for mean evaluation."""
    kappa = pos + 1
    lo = max(kappa - aux.future, 1)
    hi = min(kappa + aux.memory - aux.future, n)
    chunks = np.arange(lo, hi + 1)
    # window of chunk q covers positions q - past .. q + future, oldest first
    wpos = chunks[:, None] - (aux.memory - aux.future) + np.arange(aux.window)[None, :]
    return chunks, wpos - 1  # symbol positions 0-based, may be out of range


def _colour_steps(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                  n_chains: int) -> list:
    """Colour steps of one sweep, in colour order: unknown positions of one
    colour (position mod memory+1) and one chunk count, as many as fit in
    STEP_ROWS chain windows (chains x chunks), at least one.
    A step holds their indices into `unknown`; their positions; the row of
    each window slot in the guarded value array of _sweep_chains, once per
    candidate, (W, n_q, sites, 2); the row of each target slot when the
    gathered windows are viewed as (W * n_q * sites, 2 * chains), shaped
    (n_q, sites); and every block's observation chunks,
    (n_os, n_q, sites, 1, n_blk, 1)."""
    n = ys.shape[1] // aux.n_os
    w = aux.window
    groups = {}
    for k, pos in enumerate(unknown):
        chunks, wpos = _chunk_windows(aux, int(pos), n)
        groups.setdefault((pos % w, len(chunks)), []).append(
            (k, pos, chunks, wpos))
    steps = []
    for (_, n_q), sites in sorted(groups.items()):
        per_step = max(1, STEP_ROWS // (n_chains * n_q))
        for i in range(0, len(sites), per_step):
            ks, ps, chunks, wpos = map(np.array, zip(*sites[i:i + per_step]))
            n_s = len(ps)
            slots = wpos.transpose(2, 1, 0) + w
            # the target's slot in window (q, s) is j = pos - wpos[s, q, 0]
            tgt = ((ps - wpos[:, :, 0].T) * n_q
                   + np.arange(n_q)[:, None]) * n_s + np.arange(n_s)
            rows = (chunks[..., None] - 1) * aux.n_os + np.arange(aux.n_os)
            y_sites = ys[:, rows].transpose(3, 2, 1, 0)[:, :, :, None, :, None]
            steps.append((ks, ps, np.repeat(slots[..., None], 2, axis=-1), tgt,
                          np.ascontiguousarray(y_sites)))
    return steps


def _sweep_chains(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                  states: np.ndarray, chain_rngs, n_iter: int, burn_in: int,
                  counter: Optional[MultCounter] = None) -> np.ndarray:
    """Sweep the chains of every block in lockstep; returns post-burn-in
    counts, (n_blk, n, M).

    ys: (n_blk, n_os * n) observations.  unknown: the ascending positions
    to resample.  states: (n_blk * n_par, n) symbol digits, block-major,
    pinned columns already correct; chain_rngs[c] draws chain c's
    uniforms, one (n_unknown, m_bits) array per sweep.  The sweep works on
    states.T, position-major: in place, without a copy, when that is a
    contiguous array.
    """
    n_blk = len(ys)
    n_chains, n = states.shape
    n_par = n_chains // n_blk
    m_sym = aux.m_symbols
    m_bits = int(np.log2(m_sym))
    w, n_os = aux.window, aux.n_os
    inv2s = 1.0 / (2.0 * aux.sigma2)
    gray = gray_labels(m_sym)
    ungray = gray_to_index(m_sym)
    label_level = aux.levels[ungray]
    # flips[b]: the labels' bit b for the two candidates, as (2, 1)
    flips = np.array([[0], [1]]) << np.arange(m_bits)[:, None, None]
    steps = _colour_steps(aux, ys, unknown, n_chains)
    digits = np.ascontiguousarray(states.T)
    values = np.zeros((n + 2 * w, n_chains))
    values[w:w + n] = aux.levels[digits]
    # flat (block, position, symbol) bin of each chain's position
    bins = ((np.arange(n_chains) // n_par) * n + np.arange(n)[:, None]) * m_sym
    counts = np.zeros(n_blk * n * m_sym, dtype=np.int64)
    uniforms = np.empty((n_chains, len(unknown), m_bits))

    for sweep in range(n_iter):
        for crng, u in zip(chain_rngs, uniforms):
            crng.random(out=u)
        for ks, ps, slots, tgt, y_sites in steps:
            n_q, n_s = tgt.shape
            ctx = values[slots]                        # (W, n_q, S, 2, C)
            by_slot = ctx.reshape(-1, 2 * n_chains)
            cur_label = gray[digits[ps]]               # (S, C)
            u_sites = uniforms[:, ks].T                # (m_bits, S, C)
            for b in range(m_bits):
                labs = (cur_label & ~(1 << b))[:, None] | flips[b]  # (S, 2, C)
                by_slot[tgt] = label_level[labs].reshape(n_s, -1)
                mu = aux.mean_contexts(ctx.reshape(w, -1), counter=counter)
                # an overflow to inf is a legal metric: the bit is certain
                with np.errstate(over="ignore"):
                    d = mu.reshape(n_os, n_q, n_s, 2, n_blk, n_par) - y_sites
                    d *= d
                    metric = _sum_in_numpy_order(list(d.reshape(n_os * n_q, -1)))
                metric = metric.reshape(n_s, 2, n_chains) * inv2s
                if counter is not None:
                    counter.add("gs-metric", 2 * n_chains * tgt.size * n_os
                                + 2 * n_chains * n_s)
                # one infinite metric decides the bit; two leave no odds
                both_inf = np.isinf(np.minimum(metric[:, 0], metric[:, 1]))
                if both_inf.any():
                    pos = ps[both_inf.any(axis=1)][0]
                    raise FloatingPointError(
                        f"Gibbs sweep {sweep}: both candidates of bit {b} at "
                        f"position {pos} have infinite metrics")
                # stable sigmoid: 1/(1+e^d) = (1 - tanh(d/2))/2
                p_one = 0.5 * (1.0 - np.tanh(0.5 * (metric[:, 1] - metric[:, 0])))
                cur_label = np.where(u_sites[b] < p_one, labs[:, 1], labs[:, 0])
            digits[ps] = ungray[cur_label]
            values[ps + w] = aux.levels[digits[ps]]
        if sweep >= burn_in:
            counts += np.bincount((bins + digits).ravel(), minlength=counts.size)
    return counts.reshape(n_blk, n, m_sym)


def _sweep_split(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                 states: np.ndarray, chain_rngs, cfg: GibbsConfig,
                 counter: Optional[MultCounter]) -> np.ndarray:
    """:func:`_sweep_chains` with each block's chains cut into contiguous
    groups, one per worker of a parallel map, once the slice has at least
    FORK_UPDATES bit updates.  Chains are independent, so the groups'
    counts and multiplication tallies add up to the whole's.  states:
    (n, n_blk * n_par) digits, position-major."""
    n_blk, n_par = len(ys), cfg.n_par
    updates = n_blk * n_par * len(unknown) * int(np.log2(aux.m_symbols)) * cfg.n_iter
    k = parallel.workers(n_par) if updates >= FORK_UPDATES else 1
    bounds = [n_par * w // k for w in range(k + 1)]
    by_block = states.reshape(-1, n_blk, n_par)

    def sweep_group(w):
        a, b = bounds[w], bounds[w + 1]
        tally = None if counter is None else MultCounter()
        counts = _sweep_chains(
            aux, ys, unknown, by_block[:, :, a:b].reshape(len(states), -1).T,
            [chain_rngs[i * n_par + c] for i in range(n_blk) for c in range(a, b)],
            cfg.n_iter, cfg.burn_in, counter=tally)
        return counts, tally

    groups, _ = parallel.parallel_map(sweep_group, range(k))
    if counter is not None:
        for _, tally in groups:
            for kind, count in tally.by_kind.items():
                counter.add(kind, count)
    return sum(counts for counts, _ in groups)


def gibbs_apps(aux: AuxChannel, y: np.ndarray, view: StageView,
               cfg: GibbsConfig, rng: np.random.Generator,
               counter: Optional[MultCounter] = None) -> AppMatrix:
    """Approximate symbol-wise APPs at the stage targets of every block of
    one SIC stage by Gibbs sampling, the chains of all blocks sweeping in
    lockstep.

    y: (B, n_os*n) observations of the blocks `view` describes.  All
    not-yet-decided symbols (stages >= s) are resampled so later stages are
    marginalized; decided symbols are pinned.  Each block spawns cfg.n_par
    chain generators from `rng`, in block order; a chain draws its initial
    state, then one uniform per (symbol, bit) at each sweep.
    """
    if cfg.memory != aux.memory:
        raise ValueError("sampler memory must match the auxiliary channel")
    y = view.observations(y, aux.n_os)
    b, n = len(y), view.plan.n
    m_sym = aux.m_symbols
    m_bits = int(np.log2(m_sym))
    unknown = view.plan.undecided_positions(view.s)
    pinned = aux.chan.symbol_indices(view.known_val)
    positions = view.targets
    total = (cfg.n_iter - cfg.burn_in) * cfg.n_par

    # per block: the chains' position-major digits, guarded values and
    # count bins and one sweep's uniforms, plus the block's counts and the
    # observation chunks of every position
    stored = 8 * n * (cfg.n_par * (3 + m_bits) + m_sym + aux.window * aux.n_os)
    probs = np.empty((b, len(positions), m_sym))
    for lo, hi in block_slices(b, stored):
        chain_rngs = rng.spawn((hi - lo) * cfg.n_par)
        states = np.zeros((n, len(chain_rngs)), dtype=int)
        states[view.known_idx] = np.repeat(pinned[lo:hi], cfg.n_par, axis=0).T
        for c, crng in enumerate(chain_rngs):
            states[unknown, c] = crng.integers(0, m_sym, size=len(unknown))
        counts = _sweep_split(aux, y[lo:hi], unknown, states, chain_rngs, cfg,
                              counter)
        probs[lo:hi] = (counts[:, positions] + 1.0) / (total + m_sym)
    return AppMatrix(probs=probs, positions=positions)


def count_gs_multiplications(aux: AuxChannel, cfg: GibbsConfig,
                             n: int) -> float:
    """Real multiplications per APP estimate of the sampler on an n-symbol
    block with every position unknown.  Mirrors the instrumented kernel
    exactly: per bit update, both symbol candidates re-evaluate the affected
    chunk windows through the truncated pipeline and their Gaussian metrics.
    Exactly proportional to n_iter and n_par.
    """
    nz = aux._s_map.shape[0]
    per_context = (nz * aux.window
                   + nz * aux.chan.config.nonlinearity.mults_per_sample
                   + aux.n_os * nz)
    visits = [len(_chunk_windows(aux, pos, n)[0]) for pos in range(n)]
    mean_per_chain = 2 * sum(visits) * per_context
    metric_per_chain = sum(2 * v * aux.n_os + 2 for v in visits)
    m_bits = int(np.log2(aux.m_symbols))
    total = cfg.n_par * cfg.n_iter * m_bits * (mean_per_chain + metric_per_chain)
    return total / n
