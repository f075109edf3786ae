"""Link-error model for the error-prone channel experiments (paper Section 5).

The paper controls packet loss with a single parameter ``theta``: the
fraction of link errors in the broadcast system (0 = lossless, 1 = all
packets lost).  We model a loss as the corruption of a *bucket* the client
attempted to receive: the client pays the tuning cost of the corrupted
bucket but gets no usable payload, and has to recover according to its
index's rules (DSI carries on with the next frame's table; tree indexes
must wait for another copy of the lost node).

A loss is a pure function of *which airing* a receiver reads: the model's
seed and the bucket's unwrapped start packet, hashed with splitmix64's
finalizer and compared with one integer threshold -- a counter-based
generator in the sense of Salmon et al., "Parallel Random Numbers: As Easy
as 1, 2, 3" (SC 2011).  The model keeps no stream, so a run's losses do not
depend on how many reads other runs made before it, and the fleet kernel
evaluates the same test for every lane at once.

The error *scope* defaults to index buckets only, the buckets the paper's
recovery argument is about; ``scope="all"`` and ``"data"`` are ablations.
The default does not make losses cheap.  Traced lossy DSI window queries
(EXPERIMENTS.md "Stateless link errors") put all of their added latency on
one planner rule: after a lost table, :func:`~repro.core.visit.read_table`
reads the table at the next broadcast position, so when the lost table
belongs to a frame the window needs, that frame's objects air by unread
and the frame stays pending until its table airs again, one cycle later
(more when that read is lost too).  A lost table that only teaches costs
the wait for the next table, a few packets.  A window query needs several
frames, so at ``theta = 0.2`` most queries lose one and the reproduced
DSI window latency more than doubles -- not "a few percent".
"""

from __future__ import annotations

import math
import operator
import secrets
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .program import Bucket


VALID_SCOPES = ("index", "data", "all", "none")

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's increment


def _mix64(z: int) -> int:
    """splitmix64's finalizer on one 64-bit python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a uint64 array (products wrap modulo 2**64)."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _loss_threshold(theta: float) -> int:
    """The integer a read's hash must fall below to be lost:
    ``ceil(theta * 2**64)``, so ``theta = 1`` loses every read."""
    return math.ceil(float(theta) * 2.0**64)


class _Losses:
    """The loss test of many receivers at once, bit-equal to
    :meth:`LinkErrorModel.is_lost` for in-scope reads: lane ``l`` is the
    model seeded ``seeds[l]``.  The fleet kernel keeps one per run and
    tests any set of lanes' reads in one call, in any order."""

    __slots__ = ("keys", "threshold")

    def __init__(self, seeds: np.ndarray, theta: float) -> None:
        self.keys = _mix64_array(np.asarray(seeds).astype(np.uint64) + np.uint64(_GAMMA))
        self.threshold = _loss_threshold(theta)

    def lost(self, lanes: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Whether lane ``lanes[i]`` loses the read starting at ``starts[i]``."""
        hashed = _mix64_array(self.keys[lanes] ^ np.asarray(starts).astype(np.uint64))
        if self.threshold > _M64:
            return np.ones(len(hashed), dtype=bool)
        return hashed < np.uint64(self.threshold)


def _session_seed(
    seed: int, key: Union[int, np.ndarray]
) -> Union[int, np.ndarray]:
    """The seed of session ``key`` opened on a model seeded ``seed``:
    ``(seed * 1_000_003 + key) & 0x7FFFFFFF``, for an int key or an int64
    array of keys (the product is masked first, so a large seed never
    meets an int64 array).  Every caller that opens several sessions on
    one model -- a fleet's executions, a workload's trials, a client's
    tune-ins -- gives each its own model through this one formula."""
    return (((seed * 1_000_003) & 0x7FFFFFFF) + key) & 0x7FFFFFFF


@dataclass
class LinkErrorModel:
    """Bucket corruption with probability ``theta``.

    A reception attempt of an in-scope bucket is lost when
    ``mix(key ^ start) < ceil(theta * 2**64)``, where ``start`` is the
    bucket's unwrapped start packet, ``mix`` is splitmix64's finalizer and
    ``key = mix(seed + 0x9E3779B97F4A7C15)`` is splitmix64's first output
    for the seed; ``theta = 1`` loses every read.  The key and the
    threshold are computed once, at construction; ``seed=None`` draws its
    entropy once, at construction, and keeps it as :attr:`seed`.

    A seed names one *receiver*: sessions that share a model and read the
    same airings lose the same ones.  That is why every caller that opens
    several sessions on one model -- a workload replay's trials, a fleet's
    executions, a :class:`~repro.api.client.MobileClient`'s tune-ins --
    derives one model per session from the shared seed, and why a shared
    model gives the same rows whatever order the runs go in.
    """

    theta: float = 0.0
    scope: str = "index"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must be within [0, 1]")
        if self.scope not in VALID_SCOPES:
            raise ValueError(f"scope must be one of {VALID_SCOPES}")
        if self.seed is None:
            self.seed = secrets.randbits(63)
        self.seed = operator.index(self.seed)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self._key = _mix64((self.seed + _GAMMA) & _M64)
        self._threshold = _loss_threshold(self.theta)

    def applies_to(self, bucket: Bucket) -> bool:
        if self.scope == "none" or self.theta == 0.0:
            return False
        if self.scope == "all":
            return True
        if self.scope == "index":
            return bucket.kind.is_navigation
        return not bucket.kind.is_navigation  # scope == "data"

    def is_lost(self, bucket: Bucket, start: int) -> bool:
        """Whether the airing of ``bucket`` that starts at unwrapped packet
        ``start`` reaches this receiver corrupted."""
        if not self.applies_to(bucket):
            return False
        return _mix64(self._key ^ int(start)) < self._threshold


def _session_model(model: LinkErrorModel, key: int) -> LinkErrorModel:
    """``model`` re-seeded for session ``key`` (see :func:`_session_seed`)."""
    return replace(model, seed=_session_seed(model.seed, key))


NO_ERRORS = LinkErrorModel(theta=0.0, scope="none", seed=0)
