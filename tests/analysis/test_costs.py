"""Table 1 analytic formulas."""

import pytest

from repro.analysis.costs import ls97_costs, our_costs, table1
from repro.errors import ConfigurationError


class TestOurCosts:
    def test_paper_table_n5_m3(self):
        """Spot-check every cell against Table 1 with n=5, m=3, k=2, B=1."""
        costs = our_costs(5, 3, 1)
        row = costs["stripe-read/F"]
        assert (row.latency_delta, row.messages, row.disk_reads,
                row.disk_writes, row.bandwidth) == (2, 10, 3, 0, 3)
        row = costs["stripe-write"]
        assert (row.latency_delta, row.messages, row.disk_reads,
                row.disk_writes, row.bandwidth) == (4, 20, 0, 5, 5)
        row = costs["stripe-read/S"]
        assert (row.latency_delta, row.messages, row.disk_reads,
                row.disk_writes, row.bandwidth) == (6, 30, 8, 5, 13)
        row = costs["block-read/F"]
        assert (row.latency_delta, row.messages, row.disk_reads,
                row.disk_writes, row.bandwidth) == (2, 10, 1, 0, 1)
        # Bandwidth is Section 5.2 (b)'s (k + 2)B; the paper prints 11.
        row = costs["block-write/F"]
        assert (row.latency_delta, row.messages, row.disk_reads,
                row.disk_writes, row.bandwidth) == (4, 20, 3, 3, 4)
        row = costs["block-read/S"]
        assert (row.latency_delta, row.messages, row.disk_reads,
                row.disk_writes, row.bandwidth) == (6, 30, 6, 5, 11)
        row = costs["block-write/S"]
        assert (row.latency_delta, row.messages, row.disk_reads,
                row.disk_writes, row.bandwidth) == (8, 40, 8, 8, 21)

    def test_block_size_scales_bandwidth_only(self):
        small = our_costs(5, 3, 1)
        large = our_costs(5, 3, 1024)
        for key in small:
            assert large[key].bandwidth == small[key].bandwidth * 1024
            assert large[key].messages == small[key].messages

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            our_costs(3, 5, 1)


class TestLs97Costs:
    def test_paper_values(self):
        costs = ls97_costs(5, 1)
        read = costs["read"]
        assert (read.latency_delta, read.messages, read.disk_reads,
                read.disk_writes, read.bandwidth) == (4, 20, 5, 5, 10)
        write = costs["write"]
        assert (write.latency_delta, write.messages, write.disk_reads,
                write.disk_writes, write.bandwidth) == (4, 20, 0, 5, 5)


class TestComparisons:
    def test_our_fast_read_beats_ls97(self):
        both = table1(5, 3, 1024)
        assert (
            both["ours"]["stripe-read/F"].latency_delta
            < both["ls97"]["read"].latency_delta
        )
        assert (
            both["ours"]["stripe-read/F"].bandwidth
            < both["ls97"]["read"].bandwidth
        )

    def test_our_slow_read_costs_more(self):
        both = table1(5, 3, 1024)
        assert (
            both["ours"]["stripe-read/S"].latency_delta
            > both["ls97"]["read"].latency_delta
        )

    def test_write_latency_matches_ls97(self):
        both = table1(8, 5, 1024)
        assert (
            both["ours"]["stripe-write"].latency_delta
            == both["ls97"]["write"].latency_delta
        )
