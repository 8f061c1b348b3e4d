"""The stats and config wire format: shallow dicts equal to ``asdict``.

``MachineStats.to_dict`` and ``MachineConfig.to_dict`` feed the worker
handoff, the result cache and its keys, so they must keep producing
exactly what ``dataclasses.asdict`` produced — and the hashes built from
them must not move, or existing cache directories stop hitting.
"""

import hashlib
import json
from dataclasses import asdict, fields

import pytest

from repro.harness import session
from repro.harness.session import ExperimentSpec, ResultCache
from repro.sim.config import (CacheConfig, MachineConfig, paper_scale_config,
                              tiny_config)
from repro.sim.latency import LatencyModel
from repro.sim.stats import CpuStats, MachineStats, NodeStats, field_dict


def populated_stats(num_nodes=8, cpus_per_node=4) -> MachineStats:
    """An 8x4 MachineStats with a distinct value in every counter."""
    value = iter(range(1, 100000))

    def fill(obj):
        for f in fields(obj):
            if f.name not in ("node_id", "cpu_id"):
                setattr(obj, f.name, next(value))
        return obj

    stats = MachineStats(
        nodes=[fill(NodeStats(n)) for n in range(num_nodes)],
        cpus=[fill(CpuStats(c)) for c in range(num_nodes * cpus_per_node)])
    stats.execution_cycles = 123456
    stats.frames_allocated_total = 77
    stats.touched_line_fraction_sum = 41.625
    stats.directory_cache_hits = 9
    stats.directory_cache_misses = 4
    return stats


def test_stats_to_dict_equals_asdict():
    stats = populated_stats()
    data = stats.to_dict()
    assert data == asdict(stats)
    assert list(data["nodes"][3]) == [f.name for f in fields(NodeStats)]
    assert MachineStats.from_dict(data).to_dict() == data


def test_stats_to_dict_is_a_copy():
    stats = populated_stats()
    data = stats.to_dict()
    data["cpus"][0]["references"] = -1
    assert stats.cpus[0].references != -1


@pytest.mark.parametrize("config", [MachineConfig(), tiny_config(),
                                    paper_scale_config()],
                         ids=["default", "tiny", "paper"])
def test_config_to_dict_equals_asdict(config):
    data = config.to_dict()
    assert data == asdict(config)
    assert MachineConfig.from_dict(data) == config


def _config_digest(config: MachineConfig) -> str:
    """SHA-256 of the canonical JSON of ``config.to_dict()``."""
    canonical = json.dumps(config.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_config_hash_is_unchanged():
    # Pinned: the config dict is the cache key's largest part, so a
    # change here orphans every on-disk result cache.
    assert "engine" not in MachineConfig().to_dict()
    assert _config_digest(MachineConfig()) == (
        "c61c7ff244f1ca15262781daf05c38f21f5d9cf129d91fea343b01f7b629ad3e")
    assert _config_digest(tiny_config()) == (
        "04435262d415524f684bcd0410d85cafb994f5935c82e6e9fa98f08693ea0839")


def test_experiment_cache_key_is_unchanged(monkeypatch):
    # Pinned against a fixed model digest (the real one moves with
    # every edit to the model's source): a change here orphans every
    # on-disk result cache.
    monkeypatch.setattr(session, "model_digest", lambda: "0" * 64)
    spec = ExperimentSpec("fft", "scoma", preset="tiny", config=tiny_config())
    assert spec.cache_key() == (
        "a787436619e95fd541abbedce66f94acdd14d26b9203e61e2be6cec20da3dac4")
    assert ExperimentSpec("fft", "scoma").cache_key() == (
        "1340db73d17a12115a59661065f52eafb1bcd811b0f8907060c0508df89d01f3")
    assert ExperimentSpec("fft", "scoma-70").cache_key() == (
        "769448a483f9d4c07f9431fe93c27de49bba1d5e0a01a5172eb7730460ad4848")


def test_field_dict_keys_follow_each_class_field_order():
    # field_dict reads each class's field names once; every class keeps
    # its own declaration order, on the first call and on later ones.
    objects = [NodeStats(3), CpuStats(5), CacheConfig(256, 32, 2),
               LatencyModel()]
    for _ in range(2):
        for obj in objects:
            data = field_dict(obj)
            assert list(data) == [f.name for f in fields(obj)]
            assert data == asdict(obj)


def test_result_cache_entry_bytes_are_sorted_json(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = ExperimentSpec("fft", "scoma", preset="tiny", config=tiny_config())
    stats = populated_stats()
    metrics = {"schema": 1, "counters": {"b": 2, "a": 1}}
    cache.store(spec, stats, metrics)
    entry = {"spec": spec.to_payload(), "stats": stats.to_dict(),
             "metrics": metrics}
    path = tmp_path / spec.cache_key()[:2] / (spec.cache_key() + ".json")
    assert path.read_text() == json.dumps(entry, sort_keys=True)
    assert cache.load(spec)[0].to_dict() == stats.to_dict()
