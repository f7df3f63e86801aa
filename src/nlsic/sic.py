"""Successive-interference-cancellation index algebra.

A block of n symbols is split into S stage streams by downsampling: stage s
owns the serial positions s, s+S, s+2S, ... (1-based).  Later stages condition
on the decided symbols of earlier stages; this module owns the bookkeeping of
which positions are known, which are targets, and which known symbols sit in
the local window around a target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def kappa(s: int, t: int, n_stages: int) -> int:
    """Serial 1-based index of the t-th symbol of stage s: s + (t-1)*S."""
    if not 1 <= s <= n_stages:
        raise ValueError(f"stage {s} out of range 1..{n_stages}")
    if t < 1:
        raise ValueError(f"within-stage index {t} must be >= 1")
    return s + (t - 1) * n_stages


@dataclass(frozen=True)
class SicPlan:
    """Stage count S and block length n, with N = n/S symbols per stage."""

    n_stages: int
    n: int

    def __post_init__(self):
        if self.n_stages < 1:
            raise ValueError("need at least one stage")
        if self.n % self.n_stages != 0:
            raise ValueError(f"block length {self.n} not divisible by S={self.n_stages}")

    @property
    def per_stage(self) -> int:
        return self.n // self.n_stages

    def stage_positions(self, s: int) -> np.ndarray:
        """Serial 0-based positions of stage s, ascending."""
        if not 1 <= s <= self.n_stages:
            raise ValueError(f"stage {s} out of range 1..{self.n_stages}")
        return np.arange(s - 1, self.n, self.n_stages)


def partition(x: np.ndarray, n_stages: int) -> list:
    """Split a block into its S stage streams; V_s[t] = x[kappa(s,t+1)-1]."""
    x = np.asarray(x)
    if len(x) % n_stages != 0:
        raise ValueError(f"block length {len(x)} not divisible by S={n_stages}")
    return [x[s::n_stages] for s in range(n_stages)]


def interleave(stages: list) -> np.ndarray:
    """Inverse of :func:`partition`."""
    n_stages = len(stages)
    n = sum(len(v) for v in stages)
    out = np.empty(n, dtype=np.asarray(stages[0]).dtype)
    for s, v in enumerate(stages):
        out[s::n_stages] = v
    return out


@dataclass(frozen=True, eq=False)
class StageView:
    """Detector-side view of one SIC stage.

    known_idx/known_val hold the decided symbols of stages < s with their
    serial 0-based positions (ascending); `targets` are the positions of the
    current stage; `remaining` all not-yet-decided positions (stages >= s).
    """

    plan: SicPlan
    s: int
    known_idx: np.ndarray
    known_val: np.ndarray

    @property
    def targets(self) -> np.ndarray:
        return self.plan.stage_positions(self.s)

    @property
    def remaining(self) -> np.ndarray:
        mask = np.ones(self.plan.n, dtype=bool)
        mask[self.known_idx] = False
        return np.flatnonzero(mask)

    @property
    def phases(self) -> int:
        return self.plan.n_stages - self.s + 1


def stage_view(plan: SicPlan, s: int, x: np.ndarray) -> StageView:
    """Build the stage-s view with true prior-stage symbols as the decided
    ones (the ideal-code assumption used throughout rate estimation)."""
    if not 1 <= s <= plan.n_stages:
        raise ValueError(f"stage {s} out of range 1..{plan.n_stages}")
    x = np.asarray(x)
    if len(x) != plan.n:
        raise ValueError(f"symbol count {len(x)} does not match plan n={plan.n}")
    idx = np.sort(np.concatenate(
        [plan.stage_positions(j) for j in range(1, s)]).astype(int)) if s > 1 else \
        np.empty(0, dtype=int)
    return StageView(plan=plan, s=s, known_idx=idx, known_val=x[idx])


def shared_stage(views) -> StageView:
    """The first of `views`, after checking that all of them belong to one
    plan and stage, as a detector call over a whole stage requires."""
    first = views[0]
    if any(v.plan != first.plan or v.s != first.s for v in views):
        raise ValueError("views of one call must share the plan and stage")
    return first


def ic_window(j: int, t: int, view: StageView, l_ic: int) -> np.ndarray:
    """The l_ic known symbols closest (in serial index) to kappa(j,t).

    Ties prefer the smaller serial index; the chosen symbols are returned in
    ascending serial order and zero-filled on the left when fewer than l_ic
    known symbols exist.
    """
    chosen = ic_window_indices(j, t, view, l_ic)
    vals = np.zeros(l_ic)
    filled = chosen >= 0
    vals[filled] = view.known_val[np.searchsorted(view.known_idx, chosen[filled])]
    return vals


def ic_window_indices(j: int, t: int, view: StageView, l_ic: int) -> np.ndarray:
    """Serial 0-based positions chosen by :func:`ic_window` (-1 marks a
    zero-filled slot)."""
    if l_ic < 0:
        raise ValueError("l_ic must be >= 0")
    if l_ic == 0:
        return np.empty(0, dtype=int)
    target = kappa(j, t, view.plan.n_stages) - 1
    known = view.known_idx
    if len(known) == 0:
        return np.full(l_ic, -1, dtype=int)
    dist = np.abs(known - target)
    order = np.lexsort((known, dist))[:min(l_ic, len(known))]
    chosen = np.sort(known[order])
    if len(chosen) < l_ic:
        chosen = np.concatenate([np.full(l_ic - len(chosen), -1, dtype=int), chosen])
    return chosen
