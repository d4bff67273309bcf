"""Unit tests for NUPEA domains and placement policies."""

import pytest

from repro.core.domains import NUPEADomain, validate_domain_order
from repro.core.policy import (
    DOMAIN_AWARE,
    DOMAIN_UNAWARE,
    EFFCC,
    get_policy,
)
from repro.errors import ArchError, PnRError


class TestDomains:
    def test_basic_domain(self):
        d = NUPEADomain(0, 0, (11, 10, 9))
        assert d.name == "D0"
        assert d.column_rank(11) == 0
        assert d.column_rank(9) == 2

    def test_column_not_in_domain(self):
        d = NUPEADomain(0, 0, (11,))
        with pytest.raises(ArchError):
            d.column_rank(3)

    def test_negative_index_rejected(self):
        with pytest.raises(ArchError):
            NUPEADomain(-1, 0)

    def test_order_validation(self):
        good = [NUPEADomain(0, 0, (5,)), NUPEADomain(1, 1, (4,))]
        validate_domain_order(good)
        with pytest.raises(ArchError):
            validate_domain_order([])
        with pytest.raises(ArchError):
            validate_domain_order([NUPEADomain(1, 0, (5,))])
        with pytest.raises(ArchError):
            validate_domain_order(
                [NUPEADomain(0, 2, (5,)), NUPEADomain(1, 1, (4,))]
            )


class TestPolicies:
    def test_weights(self):
        assert EFFCC.weight("A") > EFFCC.weight("B") > EFFCC.weight("C")
        assert DOMAIN_AWARE.weight("A") == DOMAIN_AWARE.weight("C")
        assert DOMAIN_UNAWARE.weight("A") == 0.0

    def test_awareness_flags(self):
        assert not DOMAIN_UNAWARE.domain_aware
        assert DOMAIN_AWARE.domain_aware
        assert not DOMAIN_AWARE.criticality_aware
        assert EFFCC.criticality_aware

    def test_unknown_class_rejected(self):
        with pytest.raises(PnRError):
            EFFCC.weight("Z")

    def test_get_policy(self):
        assert get_policy("effcc") is EFFCC
        with pytest.raises(PnRError):
            get_policy("magic")

    def test_latency_rank_orders_as_paper(self):
        # ... D1.c0 is worse than D0.c2 which is worse than D0.c0.
        d0c0 = EFFCC.latency_rank(0, 0)
        d0c2 = EFFCC.latency_rank(0, 2)
        d1c0 = EFFCC.latency_rank(1, 0)
        assert d0c0 < d0c2 < d1c0
