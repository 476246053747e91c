"""System and test-memory configuration (paper Table 2 and §5.2.1).

The paper evaluates an 8-core out-of-order x86-64 system with 32KB private
L1s and a 1MB shared NUCA L2.  Because our substrate is a pure-Python
simulator, the default configuration is scaled down (4 cores, 4KB L1, 8KB
L2) so that the same *relative* phenomena occur: with 1KB of test memory no
capacity evictions happen, with 8KB of test memory both L1 and L2 evictions
occur (the paper's 512B-partition / 1MB-separation layout serves exactly
this purpose).  The full Table 2 configuration can be instantiated with
:meth:`SystemConfig.paper_table2`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    line_bytes: int
    ways: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"line_bytes*ways={self.line_bytes * self.ways}")
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError("cache dimensions must be positive")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    def set_index(self, address: int) -> int:
        return (address // self.line_bytes) % self.num_sets

    def line_address(self, address: int) -> int:
        return address - (address % self.line_bytes)


@dataclass(frozen=True)
class TestMemoryLayout:
    """Usable test address range (paper §5.2.1).

    The test memory of ``size_bytes`` is partitioned into contiguous blocks
    of ``partition_bytes`` whose starting addresses are separated by
    ``partition_separation`` so that partitions alias onto the same cache
    sets and capacity evictions occur once enough partitions exist.
    """

    size_bytes: int = 8 * 1024
    stride: int = 16
    partition_bytes: int = 512
    partition_separation: int = 1024 * 1024
    base_address: int = 0x10000

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.stride <= 0:
            raise ValueError("size and stride must be positive")
        if self.partition_bytes % self.stride != 0:
            raise ValueError("partition size must be a multiple of the stride")
        if self.size_bytes % self.partition_bytes != 0:
            raise ValueError("size must be a multiple of the partition size")

    @property
    def num_partitions(self) -> int:
        return self.size_bytes // self.partition_bytes

    @property
    def num_slots(self) -> int:
        """Number of distinct stride-aligned addresses in the test memory."""
        return self.size_bytes // self.stride

    def slot_address(self, slot: int) -> int:
        """Map a logical slot index to a physical address.

        Slots walk each 512B partition in order; partitions are placed
        ``partition_separation`` apart so they conflict in the caches.
        """
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
        slots_per_partition = self.partition_bytes // self.stride
        partition = slot // slots_per_partition
        offset = (slot % slots_per_partition) * self.stride
        return self.base_address + partition * self.partition_separation + offset

    def all_addresses(self) -> list[int]:
        """Every slot's :meth:`slot_address`, in slot order, built in one
        pass over the partitions' start addresses."""
        separation = self.partition_separation
        starts = range(self.base_address,
                       self.base_address + self.num_partitions * separation,
                       separation)
        return [address for start in starts
                for address in range(start, start + self.partition_bytes,
                                     self.stride)]

    @classmethod
    def kib(cls, size_kib: int, stride: int = 16) -> "TestMemoryLayout":
        """Convenience constructor matching the paper's 1KB / 8KB settings."""
        return cls(size_bytes=size_kib * 1024, stride=stride)


@dataclass(frozen=True)
class SystemConfig:
    """Full system configuration (scaled analogue of paper Table 2)."""

    num_cores: int = 4
    rob_entries: int = 16
    lsq_entries: int = 12
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=4 * 1024, line_bytes=64, ways=4, hit_latency=3))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=8 * 1024, line_bytes=64, ways=4, hit_latency=30))
    l2_hit_latency_max: int = 80
    memory_latency_min: int = 120
    memory_latency_max: int = 230
    network_latency_min: int = 4
    network_latency_max: int = 18
    issue_width: int = 2
    protocol: str = "MESI"            # "MESI" or "TSO_CC"
    # TSO-CC specific knobs (scaled down so that timestamp-group reuse and
    # timestamp resets/epoch increments occur within short tests).
    tso_cc_timestamp_group: int = 2   # writes sharing one timestamp value
    tso_cc_max_timestamp: int = 4     # timestamp reset threshold
    tso_cc_max_accesses: int = 8      # Shared-line hits before revalidation

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.protocol not in ("MESI", "TSO_CC"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ValueError("L1 and L2 must use the same line size")

    @classmethod
    def paper_table2(cls) -> "SystemConfig":
        """The (unscaled) configuration of paper Table 2."""
        return cls(
            num_cores=8,
            rob_entries=40,
            lsq_entries=32,
            l1=CacheConfig(size_bytes=32 * 1024, line_bytes=64, ways=4,
                           hit_latency=3),
            l2=CacheConfig(size_bytes=8 * 128 * 1024, line_bytes=64, ways=4,
                           hit_latency=30),
            l2_hit_latency_max=80,
            memory_latency_min=120,
            memory_latency_max=230,
        )

    def with_protocol(self, protocol: str) -> "SystemConfig":
        from dataclasses import replace
        return replace(self, protocol=protocol)

    def describe(self) -> dict[str, str]:
        """Human-readable parameter table (used by the Table 2 benchmark)."""
        return {
            "Core-count": f"{self.num_cores} (out-of-order)",
            "LSQ entries": str(self.lsq_entries),
            "ROB entries": str(self.rob_entries),
            "L1 cache (private)": (
                f"{self.l1.size_bytes // 1024}KB, {self.l1.line_bytes}B lines, "
                f"{self.l1.ways}-way"),
            "L1 hit latency": f"{self.l1.hit_latency} cycles",
            "L2 cache (shared)": (
                f"{self.l2.size_bytes // 1024}KB, {self.l2.line_bytes}B lines, "
                f"{self.l2.ways}-way"),
            "L2 hit latency": f"{self.l2.hit_latency} to {self.l2_hit_latency_max} cycles",
            "Memory latency": (
                f"{self.memory_latency_min} to {self.memory_latency_max} cycles"),
            "Coherence protocol": self.protocol,
        }
