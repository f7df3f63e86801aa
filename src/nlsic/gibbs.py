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

The state is position-major: the chains sweep their Gray labels, one
(n, C) array over the C chains, their symbol values are an (n + 2W, C)
array, W = memory+1, with W guard zeros on each side, so a window slot
outside the block reads a zero, and a sweep's uniforms are one site-major
(n_unknown, bits, C) array.  A colour step gathers its windows once,
feature-major, (W, chunks, sites, C), and evaluates one candidate label
per site and chain at a time: the target slots are rewritten, the chunk
means of all windows come from wide products (AuxChannel.mean_contexts),
and each window's squared differences are summed plane by plane in one
fixed order.  The step evaluates each site's current label once; then,
for each bit, only the label with that bit flipped, and flips or keeps
the bit from the two metrics: m_bits + 1 evaluations per site and sweep
instead of 2 m_bits.  The kept metric has the bits a fresh evaluation
would have, because a gemm gives a column the same bits whatever its
place among the columns and their count; a lone window, which numpy
would hand to gemv, is evaluated beside a copy of itself.

Chains are independent, so once a slice has FORK_UPDATES bit updates each
block's chains are cut into contiguous groups, one per CPU the caller has
to itself (see nlsic.parallel), and the groups sweep in forked workers;
smaller slices sweep in the calling process, where a fork would cost more
than it saves.  Generators and initial states are drawn in the calling
process; the groups' integer counts add up exactly, so the APPs do not
depend on the number of processes.  Their multiplication tallies add up
too, except for the copy beside a lone window, which only a group of one
chain can need.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import parallel
from .apps import AppMatrix, MultCounter, block_slices
from .config import GibbsConfig
from .fba import AuxChannel, _sum_in_numpy_order
from .sic import StageView

# Chain windows (chains x chunks) per colour step: the columns of each of
# its mean products, one candidate label at a time.  Serial gibbs_apps on 2
# blocks of 512 symbols (4-ASK, memory 3, 20 sweeps, one CPU) took medians
# of 278, 244, 209 and 288 ms at 4096, 8192, 16384 and 32768 windows with
# 64 chains per block, and 144, 114, 106 and 155 ms with 32: smaller steps
# pay more per-call overhead, and larger ones fall out of cache.  The
# benchmark's gibbs-long evaluate ran as fast at 8192 as at 16384, whose
# step temporaries raised its peak RSS by 0.8 MB.
STEP_ROWS = 8192

# Chains whose uniforms are drawn into one scratch block, then copied into
# the site-major array together: a generator draws only into a contiguous
# array, and copying one chain's row at a time took twice as long.
DRAW_CHAINS = 16

# Bit updates a block slice needs before its chains are split across
# processes.  On 2 CPUs a split slice ran up to 3x slower below 60k updates,
# broke even near 250k and ran 1.5x faster from 500k on, whatever the chain
# count: a fork costs 5-20 ms, and half of each step's time does not shrink
# with fewer chains.
FORK_UPDATES = 1 << 19


def gray_labels(m_symbols: int) -> np.ndarray:
    """Binary-reflected Gray label of each symbol index (ascending levels)."""
    i = np.arange(m_symbols)
    return i ^ (i >> 1)


def gray_to_index(m_symbols: int) -> np.ndarray:
    labels = gray_labels(m_symbols)
    inv = np.empty(m_symbols, dtype=int)
    inv[labels] = np.arange(m_symbols)
    return inv


def _chunk_windows(aux: AuxChannel, positions: np.ndarray, n: int):
    """First chunk (1-based) whose symbol window contains each 0-based
    position, and how many chunks' windows contain it."""
    kappa = np.asarray(positions) + 1
    lo = np.maximum(kappa - aux.future, 1)
    hi = np.minimum(kappa + aux.memory - aux.future, n)
    return lo, hi - lo + 1


def _colour_steps(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                  n_chains: int) -> list:
    """Colour steps of one sweep, in colour order: unknown positions of one
    colour (position mod memory+1) and one chunk count, as many as fit in
    STEP_ROWS chain windows (chains x chunks), at least one.
    A step holds their indices into `unknown`; their positions; the row of
    each window slot in the guarded value array of _sweep_chains, flat in
    (W, n_q, sites) order; the index of each target slot among those,
    shaped (n_q, sites); and every block's observation chunks,
    (n_os, n_q, sites, n_blk, 1)."""
    n = ys.shape[1] // aux.n_os
    w = aux.window
    first, n_qs = _chunk_windows(aux, unknown, n)
    colours = unknown % w
    steps = []
    for colour, n_q in sorted(set(zip(colours.tolist(), n_qs.tolist()))):
        group = np.flatnonzero((colours == colour) & (n_qs == n_q))
        per_step = max(1, STEP_ROWS // (n_chains * n_q))
        for i in range(0, len(group), per_step):
            ks = group[i:i + per_step]
            ps = unknown[ks]
            n_s = len(ps)
            chunks = first[ks, None] + np.arange(n_q)             # (S, n_q)
            # window of chunk q covers positions q - past .. q + future,
            # oldest first: slot j of window (q, s) holds position start + j
            start = (chunks - (aux.memory - aux.future) - 1).T    # (n_q, S)
            slots = (start + np.arange(w)[:, None, None] + w).ravel()
            tgt = ((ps - start) * n_q + np.arange(n_q)[:, None]) * n_s \
                + np.arange(n_s)
            rows = (chunks[..., None] - 1) * aux.n_os + np.arange(aux.n_os)
            y_sites = ys[:, rows].transpose(3, 2, 1, 0)[..., None]
            steps.append((ks, ps, slots, tgt, np.ascontiguousarray(y_sites)))
    return steps


def _metric(aux: AuxChannel, ctx: np.ndarray, tgt: np.ndarray,
            target: np.ndarray, y_sites: np.ndarray,
            counter: Optional[MultCounter]) -> np.ndarray:
    """Gaussian metric, (sites, chains), of one candidate per site and
    chain: the step's window slots ctx, (W * n_q * sites, chains), get the
    target slots tgt set to the candidate's `target` values, (sites,
    chains), and each window's squared differences against y_sites are
    summed over the (sample, chunk) planes in one fixed order."""
    n_os, n_q, n_s = y_sites.shape[:3]
    ctx[tgt] = target
    windows = ctx.reshape(aux.window, -1)
    if windows.shape[1] > 1:
        mu = aux.mean_contexts(windows, counter=counter)
    else:
        # numpy rounds a one-column product as gemv, not as a column of
        # the wider products; the lone window goes beside a copy of itself
        mu = aux.mean_contexts(np.repeat(windows, 2, axis=1),
                               counter=counter)[:, :1]
    # the means are this call's own array, so they become the differences;
    # an overflow to inf is a legal metric: the bit is certain
    with np.errstate(over="ignore"):
        d = mu.reshape(y_sites.shape[:-1] + (-1,))
        d -= y_sites
        d *= d
        metric = _sum_in_numpy_order(d.reshape(n_os * n_q, -1))
    if counter is not None:
        counter.add("gs-metric", d.size + metric.size)
    return metric.reshape(n_s, -1) * (1.0 / (2.0 * aux.sigma2))


def _sweep_chains(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                  digits: np.ndarray, chain_rngs, n_iter: int, burn_in: int,
                  counter: Optional[MultCounter] = None) -> np.ndarray:
    """Sweep the chains of every block in lockstep; returns post-burn-in
    counts, (n_blk, n, M).

    ys: (n_blk, n_os * n) observations.  unknown: the ascending positions
    to resample.  digits: (n, n_blk * n_par) symbol indices,
    position-major with the chains block-major, pinned rows already
    correct; the chains sweep them in place, as Gray labels.
    chain_rngs[c] draws chain c's uniforms, one (n_unknown, m_bits) array
    per sweep.
    """
    n_blk = len(ys)
    n, n_chains = digits.shape
    n_par = n_chains // n_blk
    m_sym = aux.m_symbols
    m_bits = int(np.log2(m_sym))
    w = aux.window
    gray = gray_labels(m_sym)
    label_level = aux.levels[gray_to_index(m_sym)]
    steps = _colour_steps(aux, ys, unknown, n_chains)
    labels = digits
    labels[...] = gray[digits]
    values = np.zeros((n + 2 * w, n_chains))
    values[w:w + n] = label_level[labels]
    # flat (block, position, label) bin of each chain's position
    bins = ((np.arange(n_chains) // n_par) * n + np.arange(n)[:, None]) * m_sym
    counts = np.zeros(n_blk * n * m_sym, dtype=np.int64)
    # one sweep's uniforms, site-major, so a step reads its sites' rows
    uniforms = np.empty((len(unknown), m_bits, n_chains))
    rows = np.empty((DRAW_CHAINS, len(unknown), m_bits))

    for sweep in range(n_iter):
        for lo in range(0, n_chains, DRAW_CHAINS):
            block = rows[:n_chains - lo]
            for crng, row in zip(chain_rngs[lo:], block):
                crng.random(out=row)
            uniforms[:, :, lo:lo + len(block)] = block.transpose(1, 2, 0)
        for ks, ps, slots, tgt, y_sites in steps:
            ctx = values[slots]                        # (W * n_q * S, C)
            u_sites = uniforms[ks]                     # (S, m_bits, C)
            cur = labels[ps]                           # (S, C)
            kept = _metric(aux, ctx, tgt, label_level[cur], y_sites, counter)
            for b in range(m_bits):
                flip = cur ^ (1 << b)
                flipped = _metric(aux, ctx, tgt, label_level[flip], y_sites,
                                  counter)
                # one infinite metric decides the bit; two, or a NaN, leave
                # no odds
                no_odds = ~np.isfinite(np.minimum(kept, flipped))
                if no_odds.any():
                    pos = ps[no_odds.any(axis=1)][0]
                    raise FloatingPointError(
                        f"Gibbs sweep {sweep}: both candidates of bit {b} at "
                        f"position {pos} have infinite or undefined metrics")
                # d = metric of bit 1 - metric of bit 0, and the stable
                # sigmoid 1/(1+e^d) = (1 - tanh(d/2))/2
                is_one = (cur & (1 << b)) != 0
                d = np.where(is_one, kept - flipped, flipped - kept)
                p_one = 0.5 * (1.0 - np.tanh(0.5 * d))
                flips = (u_sites[:, b] < p_one) != is_one
                cur = np.where(flips, flip, cur)
                kept = np.where(flips, flipped, kept)
            labels[ps] = cur
            values[ps + w] = label_level[cur]
        if sweep >= burn_in:
            counts += np.bincount((bins + labels).ravel(), minlength=counts.size)
    return counts.reshape(n_blk, n, m_sym)[:, :, gray]


def _sweep_split(aux: AuxChannel, ys: np.ndarray, unknown: np.ndarray,
                 states: np.ndarray, chain_rngs, cfg: GibbsConfig,
                 counter: Optional[MultCounter]) -> np.ndarray:
    """:func:`_sweep_chains` with each block's chains cut into contiguous
    groups, one per worker of a parallel map, once the slice has at least
    FORK_UPDATES bit updates.  Chains are independent, so the groups'
    counts add up to the whole's, and so do their multiplication tallies
    but for the copy a lone window is evaluated beside.  states:
    (n, n_blk * n_par) digits, position-major, as _sweep_chains takes
    them."""
    n_blk, n_par = len(ys), cfg.n_par
    updates = n_blk * n_par * len(unknown) * int(np.log2(aux.m_symbols)) * cfg.n_iter
    k = parallel.workers(n_par) if updates >= FORK_UPDATES else 1
    bounds = [n_par * w // k for w in range(k + 1)]
    by_block = states.reshape(-1, n_blk, n_par)

    def sweep_group(w):
        a, b = bounds[w], bounds[w + 1]
        tally = None if counter is None else MultCounter()
        counts = _sweep_chains(
            aux, ys, unknown, by_block[:, :, a:b].reshape(len(states), -1),
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

    # per block: the chains' position-major labels, guarded values and
    # count bins and one sweep's site-major uniforms, plus the block's
    # counts and APPs and the observation chunks of every position
    w = aux.window
    stored = 8 * n * (cfg.n_par * (3 + m_bits) + 2 * m_sym + w * aux.n_os)
    # per call: the uniforms' scratch rows, every colour step's window slots
    # and target rows, and one step's windows, one candidate's shaping
    # product and nonlinearity, and the sites' labels and metrics
    nz = max(len(aux._s_map), 2)
    shared = 8 * (DRAW_CHAINS * n * m_bits + (w + 1) * w * n
                  + (w + 2 * nz + 1) * STEP_ROWS)
    probs = np.empty((b, len(positions), m_sym))
    for lo, hi in block_slices(b, stored, shared):
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
    block with every position unknown, by the per-bit convention: each bit
    update evaluates both symbol candidates' chunk windows through the
    truncated pipeline (shaping, nonlinearity and receiver products) and
    their Gaussian metrics.  Exactly proportional to n_iter and n_par.

    complexity.csv and rates.csv report this convention.  The kernel
    executes less, as its MultCounter tally shows: per site and sweep it
    evaluates the current label once and, for each bit, only the label with
    that bit flipped (m_bits + 1 evaluations, not 2 m_bits), and a one-tap
    receiver multiplies by its tap, or not at all when that tap is 1.0,
    instead of running the receiver product.
    """
    nz = aux._s_map.shape[0]
    per_context = (nz * aux.window
                   + nz * aux.chan.config.nonlinearity.mults_per_sample
                   + aux.n_os * nz)
    visits = int(_chunk_windows(aux, np.arange(n), n)[1].sum())
    mean_per_chain = 2 * visits * per_context
    metric_per_chain = 2 * visits * aux.n_os + 2 * n
    m_bits = int(np.log2(aux.m_symbols))
    total = cfg.n_par * cfg.n_iter * m_bits * (mean_per_chain + metric_per_chain)
    return total / n
