"""Theorem 2: existence of m-quorum systems iff n >= 2f + m."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.registry import make_code
from repro.errors import ConfigurationError
from repro.quorum.system import MajorityMQuorumSystem
from repro.quorum import theorems
from repro.quorum.theorems import (
    max_fault_tolerance,
    min_processes,
    mquorum_exists,
    verify_quorum_system,
)


class TestBoundArithmetic:
    def test_exists_iff_bound(self):
        assert mquorum_exists(n=5, m=3, f=1)
        assert not mquorum_exists(n=5, m=3, f=2)
        assert mquorum_exists(n=8, m=5, f=1)
        assert not mquorum_exists(n=8, m=5, f=2)
        assert mquorum_exists(n=3, m=3, f=0)

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            mquorum_exists(0, 1, 0)
        with pytest.raises(ConfigurationError):
            mquorum_exists(3, 0, 0)
        with pytest.raises(ConfigurationError):
            mquorum_exists(3, 1, -1)

    def test_min_processes(self):
        assert min_processes(m=3, f=1) == 5
        assert min_processes(m=5, f=0) == 5
        assert min_processes(m=1, f=2) == 5  # classic majority quorums

    def test_max_fault_tolerance(self):
        assert max_fault_tolerance(make_code(3, 5)) == 1
        assert max_fault_tolerance(make_code(5, 8)) == 1
        assert max_fault_tolerance(make_code(5, 9)) == 2
        assert max_fault_tolerance(make_code(5, 5)) == 0

    def test_one_f_rule(self):
        # Every default f is this one function; no alias remains.
        from repro.campaign.engine import CampaignConfig, broken_config

        assert not hasattr(theorems, "canonical_f")
        for n, m in ((5, 3), (8, 4), (9, 5), (3, 3)):
            f = max_fault_tolerance(make_code(m, n))
            assert MajorityMQuorumSystem(n, m).f == f
            config = CampaignConfig(n=n, m=m)
            assert config.effective_f == f
            assert broken_config(config).f == f + 1

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=20),
    )
    def test_bound_consistency(self, m, f):
        n = min_processes(m, f)
        assert mquorum_exists(n, m, f)
        if n > 1:
            assert not mquorum_exists(n - 1, m, f)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=60),
    )
    def test_max_f_is_tight(self, m, n):
        if n < m:
            return
        f = max_fault_tolerance(make_code(m, n))
        assert mquorum_exists(n, m, f)
        assert not mquorum_exists(n, m, f + 1)


class TestCanonicalConstructionSatisfiesDefinition:
    """Exhaustively verify Definition 1 for every small (n, m)."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exhaustive_small_universes(self, n):
        for m in range(1, n + 1):
            f = max_fault_tolerance(make_code(m, n))
            qs = MajorityMQuorumSystem(n=n, m=m, f=f)
            report = verify_quorum_system(n, m, f, qs.quorums())
            assert report.valid, (n, m, f, report.violations)

    def test_lemma3_direction(self):
        """If the canonical family fails, no system exists (Lemma 3).

        Checked contrapositively on a case below the bound: for
        n=4, m=3, f=1 the canonical family (all 3-subsets) violates
        consistency, and indeed no 3-quorum system tolerating one fault
        exists over 4 processes.
        """
        n, m, f = 4, 3, 1
        family = list(itertools.combinations(range(1, n + 1), n - f))
        report = verify_quorum_system(n, m, f, family)
        assert not report.consistent
        assert not mquorum_exists(n, m, f)


class TestVerifier:
    def test_reports_consistency_violation(self):
        report = verify_quorum_system(6, 3, 0, [{1, 2, 3}, {4, 5, 6}])
        assert not report.consistent
        assert report.violations

    def test_reports_availability_violation(self):
        report = verify_quorum_system(4, 2, 1, [{1, 2, 3}])
        assert not report.available

    def test_self_intersection_checked(self):
        # combinations_with_replacement includes (Q, Q): |Q| >= m needed.
        report = verify_quorum_system(4, 3, 0, [{1, 2}])
        assert not report.consistent

    def test_violation_cap(self):
        family = [{i} for i in range(1, 7)]
        report = verify_quorum_system(6, 2, 0, family, max_violations=3)
        assert len(report.violations) == 3
