"""Unit tests for system and test-memory configuration."""

import pytest

from repro.core.config import GeneratorConfig, OperationBias
from repro.sim.config import CacheConfig, SystemConfig, TestMemoryLayout
from repro.sim.testprogram import OpKind


class TestCacheConfig:
    def test_geometry(self):
        cache = CacheConfig(size_bytes=4096, line_bytes=64, ways=4, hit_latency=3)
        assert cache.num_lines == 64
        assert cache.num_sets == 16

    def test_set_index_wraps(self):
        cache = CacheConfig(size_bytes=4096, line_bytes=64, ways=4, hit_latency=3)
        assert cache.set_index(0) == cache.set_index(16 * 64)

    def test_line_address_alignment(self):
        cache = CacheConfig(size_bytes=4096, line_bytes=64, ways=4, hit_latency=3)
        assert cache.line_address(0x1234) == 0x1200

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=64, ways=4, hit_latency=3)


class TestTestMemoryLayout:
    def test_1kb_has_two_partitions(self):
        layout = TestMemoryLayout.kib(1)
        assert layout.num_partitions == 2
        assert layout.num_slots == 64

    def test_8kb_has_sixteen_partitions(self):
        layout = TestMemoryLayout.kib(8)
        assert layout.num_partitions == 16
        assert layout.num_slots == 512

    def test_slot_addresses_are_stride_aligned(self):
        layout = TestMemoryLayout.kib(8)
        for slot in range(0, layout.num_slots, 17):
            assert layout.slot_address(slot) % layout.stride == 0

    def test_partitions_are_separated(self):
        layout = TestMemoryLayout.kib(8)
        slots_per_partition = layout.partition_bytes // layout.stride
        first = layout.slot_address(0)
        second = layout.slot_address(slots_per_partition)
        assert second - first == layout.partition_separation

    def test_partition_aliasing_forces_set_conflicts(self):
        """Partition starts map to the same L1 sets (the eviction mechanism)."""
        layout = TestMemoryLayout.kib(8)
        cache = SystemConfig().l1
        slots_per_partition = layout.partition_bytes // layout.stride
        indices = {cache.set_index(layout.slot_address(p * slots_per_partition))
                   for p in range(layout.num_partitions)}
        assert len(indices) == 1

    def test_all_addresses_unique(self):
        layout = TestMemoryLayout.kib(8)
        addresses = layout.all_addresses()
        assert len(addresses) == len(set(addresses))

    @pytest.mark.parametrize("layout", [
        TestMemoryLayout.kib(1),
        TestMemoryLayout.kib(8),
        TestMemoryLayout.kib(8, stride=64),
        TestMemoryLayout(size_bytes=2048, stride=32, partition_bytes=256,
                         partition_separation=4096, base_address=0),
        TestMemoryLayout(size_bytes=512, stride=512, partition_bytes=512),
    ], ids=["1k", "8k", "8k-s64", "custom", "one-slot"])
    def test_all_addresses_match_slot_address(self, layout):
        assert layout.all_addresses() == [
            layout.slot_address(slot) for slot in range(layout.num_slots)]

    def test_out_of_range_slot_rejected(self):
        layout = TestMemoryLayout.kib(1)
        with pytest.raises(ValueError):
            layout.slot_address(layout.num_slots)


class TestSystemConfig:
    def test_default_is_mesi(self):
        assert SystemConfig().protocol == "MESI"

    def test_with_protocol(self):
        config = SystemConfig().with_protocol("TSO_CC")
        assert config.protocol == "TSO_CC"
        assert SystemConfig().protocol == "MESI"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(protocol="MOESI")

    def test_paper_table2_parameters(self):
        table2 = SystemConfig.paper_table2()
        assert table2.num_cores == 8
        assert table2.rob_entries == 40
        assert table2.lsq_entries == 32
        assert table2.l1.size_bytes == 32 * 1024

    def test_describe_mentions_all_table2_rows(self):
        description = SystemConfig().describe()
        for key in ("Core-count", "LSQ entries", "ROB entries", "L1 hit latency",
                    "L2 hit latency", "Memory latency"):
            assert key in description

    def test_line_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(l1=CacheConfig(4096, 32, 4, 3))


class TestOperationBias:
    def test_paper_biases_normalise(self):
        bias = OperationBias()
        weights = bias.normalised()
        assert abs(sum(weights.values()) - 1.0) < 1e-9
        assert weights[OpKind.READ] == pytest.approx(0.50)
        assert weights[OpKind.WRITE] == pytest.approx(0.42)

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            OperationBias(read=-0.1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            OperationBias(read=0, read_addr_dp=0, write=0, rmw=0,
                          cache_flush=0, delay=0)


class TestGeneratorConfig:
    def test_paper_table3_values(self):
        config = GeneratorConfig.paper_table3()
        assert config.test_size == 1000
        assert config.iterations == 10
        assert config.population_size == 100
        assert config.tournament_size == 2
        assert config.mutation_probability == 0.005
        assert config.unconditional_selection_probability == 0.2
        assert config.fitaddr_bias == 0.05

    def test_single_iteration_rejected(self):
        """NDT needs more than one iteration per test-run (paper §3.1)."""
        with pytest.raises(ValueError):
            GeneratorConfig(iterations=1)

    def test_describe_contains_table3_rows(self):
        description = GeneratorConfig().describe()
        for key in ("Test size", "Iterations", "Population size", "PUSEL", "PBFA"):
            assert key in description

    def test_quick_config_is_valid(self):
        config = GeneratorConfig.quick(memory_kib=8)
        assert config.memory.size_bytes == 8 * 1024
