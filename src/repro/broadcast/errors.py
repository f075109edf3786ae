"""Link-error model for the error-prone channel experiments (paper Section 5).

The paper controls packet loss with a single parameter ``theta``: the
fraction of link errors in the broadcast system (0 = lossless, 1 = all
packets lost).  We model a loss as the corruption of a *bucket* the client
attempted to receive: the client pays the tuning cost of the corrupted
bucket but gets no usable payload, and has to recover according to its
index's rules (DSI simply carries on with the next frame; tree indexes must
wait for another copy of the lost node).

The deterioration percentages reported in the paper's Table 1 are only a few
percent at ``theta = 0.2``, which is incompatible with data objects being
lost and re-fetched a cycle later; we therefore default the error *scope* to
index buckets only and expose ``scope="all"``/``"data"`` for ablations (see
DESIGN.md Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .program import Bucket


VALID_SCOPES = ("index", "data", "all", "none")


@dataclass
class LinkErrorModel:
    """Random bucket corruption with probability ``theta``."""

    theta: float = 0.0
    scope: str = "index"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must be within [0, 1]")
        if self.scope not in VALID_SCOPES:
            raise ValueError(f"scope must be one of {VALID_SCOPES}")
        self._rng = np.random.default_rng(self.seed)

    def applies_to(self, bucket: Bucket) -> bool:
        if self.scope == "none" or self.theta == 0.0:
            return False
        if self.scope == "all":
            return True
        if self.scope == "index":
            return bucket.kind.is_navigation
        return not bucket.kind.is_navigation  # scope == "data"

    def is_lost(self, bucket: Bucket) -> bool:
        """Decide whether this particular reception attempt is corrupted."""
        if not self.applies_to(bucket):
            return False
        return bool(self._rng.random() < self.theta)


NO_ERRORS = LinkErrorModel(theta=0.0, scope="none")
