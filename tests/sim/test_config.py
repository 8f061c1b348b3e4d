"""Unit tests for machine configuration."""

import pytest

from repro.sim.config import (CacheConfig, MachineConfig, default_config,
                              paper_scale_config, tiny_config)


def test_default_geometry():
    cfg = default_config()
    assert cfg.num_cpus == 32
    assert cfg.lines_per_page == 32
    assert cfg.l1.num_sets == 16
    assert cfg.l2.num_sets == 64


def test_paper_scale_geometry():
    cfg = paper_scale_config()
    assert cfg.page_bytes == 4096
    assert cfg.l1.size_bytes == 8 * 1024
    assert cfg.l2.size_bytes == 32 * 1024


def test_tiny_config_overrides():
    cfg = tiny_config(num_nodes=3)
    assert cfg.num_nodes == 3
    assert cfg.cpus_per_node == 2


def test_line_size_mismatch_rejected():
    with pytest.raises(ValueError):
        MachineConfig(l1=CacheConfig(1024, 64, 2))


def test_l2_smaller_than_l1_rejected():
    with pytest.raises(ValueError):
        MachineConfig(l1=CacheConfig(16384, 32, 2))


def test_page_not_multiple_of_line_rejected():
    with pytest.raises(ValueError):
        MachineConfig(page_bytes=1000)


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        MachineConfig(num_nodes=0)


def test_with_policy_limits_copies():
    cfg = default_config()
    capped = cfg.with_policy_limits(100)
    assert capped.page_cache_frames == 100
    assert cfg.page_cache_frames is None


def test_to_dict_round_trips_defaults():
    cfg = default_config()
    assert MachineConfig.from_dict(cfg.to_dict()) == cfg


def test_to_dict_round_trips_nested_overrides():
    from dataclasses import replace

    from repro.sim.latency import LatencyModel
    cfg = replace(tiny_config(page_cache_frames=12,
                              enable_migration=True,
                              directory_caches_client_frames=True),
                  latency=LatencyModel(pit_access=10, pit_hash=40))
    back = MachineConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert back.l1 == cfg.l1 and back.l2 == cfg.l2
    assert back.latency.pit_access == 10


def test_to_dict_survives_json():
    import json
    cfg = tiny_config()
    rehydrated = json.loads(json.dumps(cfg.to_dict()))
    assert MachineConfig.from_dict(rehydrated) == cfg
