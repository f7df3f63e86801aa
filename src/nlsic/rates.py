"""Monte-Carlo achievable-rate estimation.

Stage rates are mismatched lower bounds: with uniform inputs the symbol
entropy is exactly the alphabet's bit count, so the stage rate reduces to
m + E[log2 Q(truth)] over fresh blocks, with the detector conditioned on
true earlier-stage symbols (ideal codes between stages).  The average over
stages is the SIC rate; one stage is plain separate detection.  Standard
errors are per-block jackknife estimates, and the auxiliary-channel upper
bound from the trellis module completes the rate sandwich.

Each stage draws its evaluation blocks one after another from the caller's
generator, stacks their symbols and observations, and hands the detector
one StageView and one observation array for the whole stage; the returned
(B, N, M) AppMatrix is scored without a loop over blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channel as ch
from .apps import CLAMP_FLOOR, AppMatrix
from .fba import AuxChannel, fba_apps, fba_ub, jackknife_stderr
from .gibbs import GibbsConfig, gibbs_apps
from .rnn import rnn_apps
from .sic import SicPlan, stage_view


# ---------------------------------------------------------------------------
# Detector adaptors: one call per SIC stage, over all of that stage's blocks.
# apps(y, view, rng) returns one AppMatrix over the blocks `view` describes,
# whose observations are the rows of y.


class FbaDetector:
    name = "fba"

    def __init__(self, aux: AuxChannel):
        self.aux = aux

    def apps(self, y, view, rng) -> AppMatrix:
        return fba_apps(self.aux, y, view)


class GibbsDetector:
    name = "gibbs"

    def __init__(self, aux: AuxChannel, cfg: GibbsConfig):
        self.aux = aux
        self.cfg = cfg

    def apps(self, y, view, rng) -> AppMatrix:
        return gibbs_apps(self.aux, y, view, self.cfg, rng)


class RnnDetector:
    name = "rnn"

    def __init__(self, models: dict):
        """models: stage index (1-based) -> trained RnnModel."""
        self.models = models

    def apps(self, y, view, rng) -> AppMatrix:
        return rnn_apps(self.models[view.s], y, view)


class UniformDetector:
    """Dummy detector: uniform PMFs, zero rate by construction."""

    name = "uniform"

    def __init__(self, m_symbols: int):
        self.m_symbols = m_symbols

    def apps(self, y, view, rng) -> AppMatrix:
        probs = np.full((len(y), len(view.targets), self.m_symbols),
                        1.0 / self.m_symbols)
        return AppMatrix(probs=probs, positions=view.targets)


# ---------------------------------------------------------------------------
# Estimators


@dataclass
class StageRate:
    s: int
    rate: float
    stderr: float
    clamp_fraction: float
    flagged: bool
    per_block: np.ndarray


@dataclass
class RateReport:
    detector: str
    stage_rates: list
    i_sic_stderr: float
    ub: Optional[float] = None
    ub_stderr: Optional[float] = None

    @property
    def i_sic(self) -> float:
        """The SIC rate: the average of the stage rates."""
        return float(np.mean([sr.rate for sr in self.stage_rates]))


def evaluate_stage_on_blocks(detector, chan: ch.DiscreteChannel, plan: SicPlan,
                             s: int, blocks, rng) -> StageRate:
    """Stage rate on caller-supplied blocks (lets detectors share data)."""
    x = np.stack([blk.x for blk in blocks])
    y = np.stack([blk.y for blk in blocks])
    app = detector.apps(y, stage_view(plan, s, x), rng)
    log2q = app.log2_prob_of(chan.symbol_indices(x[:, app.positions]))
    per_block = chan.config.alphabet.bits + log2q.mean(axis=1)
    clamped = log2q <= np.log2(CLAMP_FLOOR) + 1e-9
    frac = np.count_nonzero(clamped) / clamped.size
    return StageRate(s=s, rate=float(np.mean(per_block)),
                     stderr=jackknife_stderr(per_block),
                     clamp_fraction=frac, flagged=frac > 0.01,
                     per_block=per_block)


def simulate_eval_blocks(chan: ch.DiscreteChannel, n_blk: int, n: int, rng):
    return [ch.random_block(chan, n, rng) for _ in range(n_blk)]


def estimate_stage_rate(detector, chan: ch.DiscreteChannel, plan: SicPlan, s: int,
                        n_blk: int, rng) -> StageRate:
    """rate = m + <log2 Q(truth)> over n_blk fresh blocks of plan.n symbols."""
    blocks = simulate_eval_blocks(chan, n_blk, plan.n, rng)
    return evaluate_stage_on_blocks(detector, chan, plan, s, blocks, rng)


def estimate_sic(detector, chan: ch.DiscreteChannel, plan: SicPlan, n_blk: int,
                 rng, ub_aux: Optional[AuxChannel] = None) -> RateReport:
    """Run every stage on blocks of plan.n symbols, average, and optionally
    attach the upper bound."""
    stage_rates = [estimate_stage_rate(detector, chan, plan, s, n_blk, rng)
                   for s in range(1, plan.n_stages + 1)]
    i_sic_se = float(np.sqrt(np.sum([sr.stderr**2 for sr in stage_rates]))
                     / plan.n_stages)
    ub = ub_se = None
    if ub_aux is not None:
        blocks = simulate_eval_blocks(chan, n_blk, plan.n, rng)
        ub, ub_se = fba_ub(ub_aux, blocks)
    return RateReport(detector=detector.name, stage_rates=stage_rates,
                      i_sic_stderr=i_sic_se, ub=ub, ub_stderr=ub_se)
