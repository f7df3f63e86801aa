"""Common output type of all APP detectors, plus operation counting.

Every detector (forward-backward, Gibbs sampler, recurrent network) returns
an :class:`AppMatrix`: one PMF over the symbol alphabet per target position
of each block of a SIC stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOG2 = np.log(2.0)

# Smallest probability a scored symbol may receive: the training loss, its
# gradient and the rate estimates clamp below it so every log stays finite.
CLAMP_FLOOR = 1e-30

# Bytes of working state that one detector pass over a slice of blocks may
# hold.  A stage's blocks run slice by slice, so memory does not grow with
# their number.
SLICE_BYTES = 1 << 22


def block_slices(n_blocks: int, bytes_per_block: int) -> list:
    """(lo, hi) bounds of consecutive block slices within SLICE_BYTES."""
    step = max(1, SLICE_BYTES // bytes_per_block)
    return [(lo, min(lo + step, n_blocks)) for lo in range(0, n_blocks, step)]


@dataclass
class MultCounter:
    """Tally of real multiplications executed by an instrumented kernel."""

    total: int = 0
    by_kind: dict = field(default_factory=dict)

    def add(self, kind: str, count: int) -> None:
        self.total += int(count)
        self.by_kind[kind] = self.by_kind.get(kind, 0) + int(count)


@dataclass
class AppMatrix:
    """Per-symbol a-posteriori PMFs over the alphabet for a batch of blocks.

    Attributes:
        probs: (B, N, M) probabilities, each row a PMF.
        positions: (N,) serial 0-based symbol indices the rows refer to,
            the same in every block.
    """

    probs: np.ndarray
    positions: np.ndarray

    @classmethod
    def from_logp(cls, logp: np.ndarray, positions: np.ndarray) -> "AppMatrix":
        """Normalize unnormalized log scores row-wise into PMFs."""
        logp = np.asarray(logp, dtype=np.float64)
        mx = logp.max(axis=-1, keepdims=True)
        z = np.exp(logp - mx)
        return cls(probs=z / z.sum(axis=-1, keepdims=True),
                   positions=np.asarray(positions))

    @property
    def n_rows(self) -> int:
        """PMF rows over all blocks."""
        return self.probs.shape[0] * self.probs.shape[1]

    def log2_prob_of(self, indices: np.ndarray) -> np.ndarray:
        """log2 of the probability assigned to given symbol indices, (B, N).

        Probabilities below CLAMP_FLOOR are clamped to keep it finite.
        """
        idx = np.asarray(indices, dtype=int)[..., None]
        p = np.take_along_axis(self.probs, idx, axis=-1)[..., 0]
        return np.log2(np.maximum(p, CLAMP_FLOOR))
