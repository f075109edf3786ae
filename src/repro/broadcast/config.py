"""System-wide broadcast parameters (paper Section 4).

The evaluation fixes the following sizes:

* data object: 1024 bytes;
* two-dimensional coordinate: two 8-byte floats (16 bytes);
* HC value: 16 bytes (same total size as a coordinate);
* pointer inside an index table / index node: 2 bytes;
* packet capacity: varied from 32 to 512 bytes, default 64.

Both access latency and tuning time are reported in *bytes*, obtained by
multiplying packet counts by the packet capacity, exactly as the paper does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SystemConfig:
    """Immutable bundle of the broadcast system parameters.

    ``n_channels``/``channel_switch_packets`` describe the channel topology
    (PR 3): 1 is the paper's single broadcast channel; ``n >= 2`` airs the
    index on a fast control channel and stripes data frames across the
    ``n - 1`` remaining data channels (see
    :class:`~repro.broadcast.schedule.BroadcastSchedule`).  Retuning the
    radio to another channel costs ``channel_switch_packets`` packets of
    access latency (no tuning time -- the radio is not receiving while it
    retunes).  Neither field affects how an index is *built*: the air
    layout is sliced into channels after the fact, which is why the build
    cache keys on :meth:`air_equivalent`.
    """

    packet_capacity: int = 64
    object_size: int = 1024
    coord_size: int = 16
    hc_value_size: int = 16
    pointer_size: int = 2
    n_channels: int = 1
    channel_switch_packets: int = 0

    def __post_init__(self) -> None:
        if self.packet_capacity < 8:
            raise ValueError("packet_capacity must be at least 8 bytes")
        if self.object_size < 1:
            raise ValueError("object_size must be positive")
        for name in ("coord_size", "hc_value_size", "pointer_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
        if self.channel_switch_packets < 0:
            raise ValueError("channel_switch_packets must be non-negative")

    # -- derived sizes -------------------------------------------------------

    @property
    def dsi_entry_size(self) -> int:
        """Size of one DSI index-table entry ``<HC', P>``."""
        return self.hc_value_size + self.pointer_size

    @property
    def bptree_entry_size(self) -> int:
        """Size of one B+-tree entry (HC key + pointer), used by HCI."""
        return self.hc_value_size + self.pointer_size

    @property
    def rtree_entry_size(self) -> int:
        """Size of one R-tree entry (an MBR of two coordinates + pointer)."""
        return 2 * self.coord_size + self.pointer_size

    @property
    def object_packets(self) -> int:
        """Packets needed to broadcast one data object."""
        return self.packets_for(self.object_size)

    def packets_for(self, n_bytes: int) -> int:
        """Number of packets needed for ``n_bytes`` (at least one)."""
        if n_bytes <= 0:
            return 1
        return math.ceil(n_bytes / self.packet_capacity)

    def with_capacity(self, packet_capacity: int) -> "SystemConfig":
        """A copy of this configuration with a different packet capacity."""
        return replace(self, packet_capacity=packet_capacity)

    def with_channels(
        self, n_channels: int, channel_switch_packets: int | None = None
    ) -> "SystemConfig":
        """A copy of this configuration with a different channel topology."""
        if channel_switch_packets is None:
            channel_switch_packets = self.channel_switch_packets
        return replace(
            self, n_channels=n_channels, channel_switch_packets=channel_switch_packets
        )

    def air_equivalent(self) -> "SystemConfig":
        """The topology-free core of this configuration.

        Two configurations differing only in channel topology produce the
        same *built* index (channels slice the air layout afterwards), so
        the index-build cache keys on this normal form.
        """
        if self.n_channels == 1 and self.channel_switch_packets == 0:
            return self
        return replace(self, n_channels=1, channel_switch_packets=0)


#: Packet capacities evaluated in the paper's figures.
PAPER_PACKET_CAPACITIES = (32, 64, 128, 256, 512)

#: Capacities for which the R-tree can be built (the paper notes the R-tree
#: cannot fit an MBR entry in a 32-byte packet, so its curves start at 64).
RTREE_PACKET_CAPACITIES = (64, 128, 256, 512)

DEFAULT_CONFIG = SystemConfig()
