"""Traffic counters shared by the engines.

Every engine tallies external (DRAM) traffic by operand and direction, and
logical internal (LLC-to-cores) traffic, in *elements*. Byte conversions
happen at reporting time with the machine's element width. The categories
mirror :class:`repro.schedule.reuse.ReuseReport` so executor-counted
traffic can be cross-checked against the schedule analyzer in tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class TrafficCounters:
    """External and internal operand traffic, in elements.

    Attributes
    ----------
    ext_a_read, ext_b_read:
        Input-surface elements fetched from DRAM.
    ext_c_write:
        Completed-result elements written back to DRAM.
    ext_c_spill, ext_c_read:
        Partial-result elements written back before completion and
        fetched again (zero for CAKE's K-first schedule by construction;
        the dominant cost for GOTO at large K).
    ext_pack:
        Packing traffic (each packed element read + written once).
    internal:
        Logical LLC-to-core elements moved (A loads, per-core B streams,
        partial-C read+write).
    tile_cycles:
        Critical-path model cycles across all blocks (the most-loaded
        core's tile count per block, summed).
    macs:
        Multiply-accumulate operations actually executed.
    ipc_bytes:
        Inter-process traffic of a process-sharded run
        (:mod:`repro.gemm.sharded`), in **bytes**: the packed A/B panel
        surface each shard worker attaches plus the C panel it writes
        back, derived deterministically from the shard plan (never
        measured from the OS). Zero for in-process runs, so equality of
        serial and sharded counters is checked via :meth:`without_ipc`.
    """

    ext_a_read: int = 0
    ext_b_read: int = 0
    ext_c_write: int = 0
    ext_c_spill: int = 0
    ext_c_read: int = 0
    ext_pack: int = 0
    internal: int = 0
    tile_cycles: float = 0.0
    macs: int = 0
    ipc_bytes: int = 0

    @property
    def ext_compute_elements(self) -> int:
        """External elements moved during compute (excludes packing)."""
        return (
            self.ext_a_read
            + self.ext_b_read
            + self.ext_c_write
            + self.ext_c_spill
            + self.ext_c_read
        )

    @property
    def ext_total_elements(self) -> int:
        """All external elements, packing included."""
        return self.ext_compute_elements + self.ext_pack

    def ext_total_bytes(self, element_bytes: int) -> int:
        """All external traffic in bytes."""
        return self.ext_total_elements * element_bytes

    def merge(self, other: "TrafficCounters") -> None:
        """Accumulate ``other`` into ``self`` in place."""
        self.ext_a_read += other.ext_a_read
        self.ext_b_read += other.ext_b_read
        self.ext_c_write += other.ext_c_write
        self.ext_c_spill += other.ext_c_spill
        self.ext_c_read += other.ext_c_read
        self.ext_pack += other.ext_pack
        self.internal += other.internal
        self.tile_cycles += other.tile_cycles
        self.macs += other.macs
        self.ipc_bytes += other.ipc_bytes

    def copy(self) -> "TrafficCounters":
        """An independent copy (each run of a memoized accounting gets
        its own)."""
        return TrafficCounters(
            self.ext_a_read,
            self.ext_b_read,
            self.ext_c_write,
            self.ext_c_spill,
            self.ext_c_read,
            self.ext_pack,
            self.internal,
            self.tile_cycles,
            self.macs,
            self.ipc_bytes,
        )

    def without_ipc(self) -> "TrafficCounters":
        """A copy with :attr:`ipc_bytes` zeroed.

        The schedule-derived tallies of a process-sharded run must equal
        the serial walk's exactly; only the IPC surface differs. Tests
        and benches compare ``run.counters.without_ipc() ==
        serial.counters`` to assert that.
        """
        counters = self.copy()
        counters.ipc_bytes = 0
        return counters
