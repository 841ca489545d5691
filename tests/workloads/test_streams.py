"""Network arrival model."""

import pytest

from repro.workloads.streams import NetworkModel


def test_100gbps_8byte_rate():
    net = NetworkModel(line_rate_gbps=100.0, tuple_bytes=8)
    assert net.tuples_per_second == pytest.approx(1.5625e9)

def test_throughput_gbps():
    net = NetworkModel()
    # 1.5625e9 tuples in one second is exactly line rate.
    assert net.throughput_gbps(1_562_500_000, 1.0) == pytest.approx(100.0)

def test_validation():
    with pytest.raises(ValueError):
        NetworkModel(line_rate_gbps=0)
    with pytest.raises(ValueError):
        NetworkModel(tuple_bytes=0)
    net = NetworkModel()
    with pytest.raises(ValueError):
        net.tuples_in(-1)
    with pytest.raises(ValueError):
        net.throughput_gbps(10, 0)
