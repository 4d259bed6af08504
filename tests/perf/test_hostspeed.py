"""Reference seconds: host time converted at the probed host speed."""

from __future__ import annotations

import time

import pytest


class FixedProbe:
    """Reports the given rates in turn, without doing any work."""

    def __init__(self, rates):
        self.rates = list(rates)
        self.calls = 0

    def rate(self, seconds):
        self.calls += 1
        return self.rates.pop(0)


def test_probe_rate_is_positive_and_repeatable(perf_hostspeed):
    probe = perf_hostspeed.HostProbe()
    assert probe.unit() == probe.unit()
    assert probe.rate(0.01) > 0


def test_clock_converts_at_the_median_probe_rate(perf_hostspeed):
    ref = perf_hostspeed.REFERENCE_RATE
    clock = perf_hostspeed.ReferenceClock(
        FixedProbe([ref / 2, ref / 20, ref / 2, ref]), probe_s=0.0,
        every_s=0.0)
    clock.start()
    for _ in range(2):
        time.sleep(0.01)
        clock.tick()
    time.sleep(0.01)
    clock.stop()
    assert clock.rates == [ref / 2, ref / 20, ref / 2, ref]
    assert clock.host_s >= 0.03
    assert clock.speed == pytest.approx(0.5)
    assert clock.ref_s == pytest.approx(clock.host_s / 2)


def test_clock_probes_only_once_the_interval_has_passed(perf_hostspeed):
    probe = FixedProbe([1.0] * 3)
    clock = perf_hostspeed.ReferenceClock(probe, probe_s=0.0, every_s=60.0)
    clock.start()
    for _ in range(100):
        clock.tick()
    clock.stop()
    assert probe.calls == 2
