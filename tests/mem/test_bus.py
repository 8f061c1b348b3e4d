"""Unit tests for the bus and node memory models."""

from repro.mem.bus import MemoryBus, NodeMemory
from repro.sim.latency import LatencyModel

from tests.conftest import memory_read


def test_bus_request_occupancy():
    lat = LatencyModel()
    bus = MemoryBus(0, lat)
    t1 = bus.request(100)
    assert t1 == 100 + lat.bus_request
    # A second request issued "simultaneously" waits for the first.
    t2 = bus.request(100)
    assert t2 == t1 + lat.bus_request
    assert bus.transactions == 2


def test_bus_address_and_data_paths_independent():
    lat = LatencyModel()
    bus = MemoryBus(0, lat)
    bus.request(0)
    t = bus.transfer(0)   # data path is free even while addr path busy
    assert t == lat.bus_data


def test_memory_read_write_occupancy():
    lat = LatencyModel()
    mem = NodeMemory(0, lat)
    t = memory_read(mem, 0)
    assert t == lat.local_memory
    t2 = mem.write(0)  # serialized behind the read
    assert t2 == lat.local_memory + lat.local_memory // 2
    assert mem.port.acquisitions == 2
    assert mem.port.busy_cycles == t2
