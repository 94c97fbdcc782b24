"""Direct tests for small accessors that only had indirect coverage."""

import numpy as np
import pytest

from repro.runtime.reports import report_from_sums
from repro.workload.catalog import build_catalog


class TestReportPowerLimits:
    def test_limits_in_host_order(self):
        report = report_from_sums(
            "j", "monitor", np.ones(1), np.full(3, 100.0), np.full(3, 2.0),
            np.array([200.0, 201.0, 202.0]), {},
        )
        np.testing.assert_allclose(report.power_limits_w(), [200.0, 201.0, 202.0])


class TestCatalogPollPower:
    def test_uncapped_poll_power_below_peak(self):
        catalog = build_catalog()
        poll = catalog.uncapped_poll_power_w()
        peak = catalog.uncapped_power_w(catalog.find(8.0))
        assert 180.0 < poll < peak

    def test_poll_power_consistent_with_activity(self):
        from repro.hardware.node import NodePowerModel
        from repro.workload.kernel import POLL_ACTIVITY_FACTOR

        catalog = build_catalog()
        expected = NodePowerModel().uncapped_power(POLL_ACTIVITY_FACTOR)
        assert catalog.uncapped_poll_power_w() == pytest.approx(float(expected))

