"""The stats and config wire format: shallow dicts equal to ``asdict``.

``MachineStats.to_dict`` and ``MachineConfig.to_dict`` feed the worker
handoff, the result cache and its keys, so they must keep producing
exactly what ``dataclasses.asdict`` produced — and the hashes built from
them must not move, or existing cache directories stop hitting.
"""

from dataclasses import asdict, fields

import pytest

from repro.harness.session import ExperimentSpec
from repro.sim.config import (MachineConfig, paper_scale_config,
                              tiny_config)
from repro.sim.stats import CpuStats, MachineStats, NodeStats


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


def test_config_hash_is_unchanged():
    # Pinned: a change here orphans every on-disk result cache.
    assert "engine" not in MachineConfig().to_dict()
    assert MachineConfig().config_hash() == (
        "32dbad5dc86a5ac7a4e06adc5eb3f094f2777269e520fa4060f0633950f99049")
    assert tiny_config().config_hash() == (
        "0f6ef2fe7c4efc008f7b8d1d5ba0e81c649ebe717178d48456cf854c0cc4c81c")


def test_experiment_cache_key_is_unchanged():
    spec = ExperimentSpec("fft", "scoma", preset="tiny", config=tiny_config())
    assert spec.cache_key() == (
        "a5715ad56ba78cbd1382aee0a5a1b45aab30fe722dfe522a47a38ccdebe5e4e0")
    assert ExperimentSpec("fft", "scoma").cache_key() == (
        "3962d38ebaabd1a8cf9aeb4704c3a92ddc863993e0e53002113e9dc48b84b0f2")
