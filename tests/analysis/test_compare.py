"""Analytic-vs-measured comparison harness."""

import pytest

from repro.analysis.compare import ComparisonRow, compare_table1
from repro.analysis.costs import our_costs
from tests.conftest import block_of, make_cluster, stripe_of


class TestComparisonRow:
    def test_deviation(self):
        row = ComparisonRow("op", "messages", analytic=10.0, measured=11.0)
        assert row.deviation == pytest.approx(0.1)

    def test_zero_analytic(self):
        assert ComparisonRow("op", "x", 0.0, 0.0).deviation == 0.0
        assert ComparisonRow("op", "x", 0.0, 1.0).deviation == float("inf")

    def test_str(self):
        assert "messages" in str(ComparisonRow("op", "messages", 1, 1))


class TestMeasuredMatchesAnalytic:
    """The headline Table 1 validation: simulator == formulas on the
    fast paths in a failure-free run."""

    def test_fast_paths_exact(self):
        n, m, B = 5, 3, 64
        cluster = make_cluster(m=m, n=n, block_size=B)
        register = cluster.register(0)
        register.write_stripe(stripe_of(m, B, tag=1))
        register.read_stripe()
        register.read_block(2)
        register.write_block(2, block_of(B, tag=2))
        rows = compare_table1(our_costs(n, m, B), cluster.metrics.summary())
        assert rows, "no comparable rows found"
        for row in rows:
            assert row.deviation == 0.0, str(row)

    def test_multiple_geometries(self):
        for m, n in [(2, 4), (5, 8), (1, 3)]:
            B = 32
            cluster = make_cluster(m=m, n=n, block_size=B)
            register = cluster.register(0)
            register.write_stripe(stripe_of(m, B, tag=1))
            register.read_stripe()
            register.write_block(min(2, m), block_of(B, tag=2))
            summary = cluster.metrics.summary()
            assert "write-block/fast" in summary
            rows = compare_table1(our_costs(n, m, B), summary)
            for row in rows:
                assert row.deviation == 0.0, (m, n, str(row))
