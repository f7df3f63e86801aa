"""Monte-Carlo achievable-rate estimation.

Stage rates are mismatched lower bounds: with uniform inputs the symbol
entropy is exactly the alphabet's bit count, so the stage rate reduces to
m + E[log2 Q(truth)] over fresh blocks, with the detector conditioned on
true earlier-stage symbols (ideal codes between stages).  The average over
stages is the SIC rate; one stage is plain separate detection.  Standard
errors are per-block jackknife estimates, and the auxiliary-channel upper
bound from the trellis module completes the rate sandwich.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channel as ch
from .apps import CLAMP_FLOOR, AppMatrix, MultCounter
from .fba import AuxChannel, fba_apps, fba_ub, jackknife_stderr
from .gibbs import GibbsConfig, gibbs_apps
from .rnn import rnn_apps
from .sic import SicPlan, stage_view


# ---------------------------------------------------------------------------
# Detector adaptors: one call per SIC stage, over all of that stage's blocks.
# apps(blocks, views, rng) returns one AppMatrix per block, in order.


class FbaDetector:
    name = "fba"

    def __init__(self, aux: AuxChannel, counter: Optional[MultCounter] = None):
        self.aux = aux
        self.counter = counter

    def apps(self, blocks, views, rng) -> list:
        return fba_apps(self.aux, [blk.y for blk in blocks], views,
                        counter=self.counter)


class GibbsDetector:
    name = "gibbs"

    def __init__(self, aux: AuxChannel, cfg: GibbsConfig,
                 counter: Optional[MultCounter] = None):
        self.aux = aux
        self.cfg = cfg
        self.counter = counter

    def apps(self, blocks, views, rng) -> list:
        return gibbs_apps(self.aux, [blk.y for blk in blocks], views, self.cfg,
                          rng, counter=self.counter)


class RnnDetector:
    name = "rnn"

    def __init__(self, models: dict, counter: Optional[MultCounter] = None):
        """models: stage index (1-based) -> trained RnnModel."""
        self.models = models
        self.counter = counter

    def apps(self, blocks, views, rng) -> list:
        model = self.models[views[0].s]
        return rnn_apps(model, [blk.y for blk in blocks], views,
                        counter=self.counter)


class UniformDetector:
    """Dummy detector: uniform PMFs, zero rate by construction."""

    name = "uniform"

    def __init__(self, m_symbols: int):
        self.m_symbols = m_symbols

    def apps(self, blocks, views, rng) -> list:
        out = []
        for view in views:
            probs = np.full((len(view.targets), self.m_symbols),
                            1.0 / self.m_symbols)
            out.append(AppMatrix(probs=probs, logp=np.log(probs),
                                 positions=view.targets))
        return out


class OracleDetector:
    """Point mass on the true symbol; hits the entropy ceiling exactly."""

    name = "oracle"

    def __init__(self, chan: ch.DiscreteChannel):
        self.chan = chan

    def apps(self, blocks, views, rng) -> list:
        return [AppMatrix.point_masses(
                    self.chan.symbol_indices(blk.x[view.targets]),
                    self.chan.config.alphabet.size, view.targets)
                for blk, view in zip(blocks, views)]


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
    p_tx_db: float
    detector: str
    n_stages: int
    n_blk: int
    n: int
    stage_rates: list
    i_sic_stderr: float
    i_sdd: Optional[float] = None
    ub: Optional[float] = None
    ub_stderr: Optional[float] = None
    config_hash: str = ""

    @property
    def i_sic(self) -> float:
        """The SIC rate: the average of the stage rates."""
        return float(np.mean([sr.rate for sr in self.stage_rates]))


def evaluate_stage_on_blocks(detector, chan: ch.DiscreteChannel, plan: SicPlan,
                             s: int, blocks, rng) -> StageRate:
    """Stage rate on caller-supplied blocks (lets detectors share data)."""
    m_bits = chan.config.alphabet.bits
    per_block = np.empty(len(blocks))
    clamps = 0
    symbols = 0
    views = [stage_view(plan, s, blk.x) for blk in blocks]
    apps = detector.apps(blocks, views, rng)
    for i, (blk, app) in enumerate(zip(blocks, apps)):
        truth = chan.symbol_indices(blk.x[app.positions])
        log2q = app.log2_prob_of(truth, floor=CLAMP_FLOOR)
        clamps += int(np.count_nonzero(log2q <= np.log2(CLAMP_FLOOR) + 1e-9))
        symbols += len(log2q)
        per_block[i] = m_bits + float(np.mean(log2q))
    frac = clamps / max(symbols, 1)
    return StageRate(s=s, rate=float(np.mean(per_block)),
                     stderr=jackknife_stderr(per_block),
                     clamp_fraction=frac, flagged=frac > 0.01,
                     per_block=per_block)


def simulate_eval_blocks(chan: ch.DiscreteChannel, n_blk: int, n: int, rng):
    return [ch.random_block(chan, n, rng) for _ in range(n_blk)]


def estimate_stage_rate(detector, chan: ch.DiscreteChannel, plan: SicPlan, s: int,
                        n_blk: int, n: int, rng) -> StageRate:
    """rate = m + <log2 Q(truth)> over n_blk fresh blocks of n symbols."""
    if plan.n != n:
        plan = SicPlan(plan.n_stages, n)
    blocks = simulate_eval_blocks(chan, n_blk, n, rng)
    return evaluate_stage_on_blocks(detector, chan, plan, s, blocks, rng)


def estimate_sic(detector, chan: ch.DiscreteChannel, plan: SicPlan,
                 n_blk: int, n: int, rng, ub_aux: Optional[AuxChannel] = None,
                 config_hash: str = "") -> RateReport:
    """Run every stage, average, and optionally attach the upper bound."""
    if plan.n != n:
        plan = SicPlan(plan.n_stages, n)
    stage_rates = [estimate_stage_rate(detector, chan, plan, s, n_blk, n, rng)
                   for s in range(1, plan.n_stages + 1)]
    i_sic_se = float(np.sqrt(np.sum([sr.stderr**2 for sr in stage_rates]))
                     / plan.n_stages)
    ub = ub_se = None
    if ub_aux is not None:
        blocks = simulate_eval_blocks(chan, n_blk, n, rng)
        ub, ub_se = fba_ub(ub_aux, blocks)
    p_tx_db = float(10.0 * np.log10(
        chan.config.alphabet.mean_power * chan.amplitude_scale**2
        * chan.g.energy / chan.config.n_sim))
    return RateReport(p_tx_db=p_tx_db, detector=detector.name,
                      n_stages=plan.n_stages, n_blk=n_blk, n=n,
                      stage_rates=stage_rates, i_sic_stderr=i_sic_se,
                      i_sdd=stage_rates[0].rate if plan.n_stages == 1 else None,
                      ub=ub, ub_stderr=ub_se, config_hash=config_hash)
