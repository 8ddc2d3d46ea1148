"""Content-addressed solve cache: key stability, LRU, disk, freezing."""

import numpy as np
import pytest

from repro import schedule
from repro.core import CostModel
from repro.engine import SolveCache, deep_freeze, solve_key
from repro.grid import Mesh2D
from repro.mem import CapacityPlan
from repro.trace import build_reference_tensor
from repro.workloads import benchmark as make_benchmark, trace_from_counts

TOPO = Mesh2D(2, 3)


def _tensor_from(counts):
    counts = np.asarray(counts, dtype=np.int64)
    trace, windows = trace_from_counts(counts, TOPO)
    return build_reference_tensor(trace, windows)


@pytest.fixture
def small():
    counts = np.zeros((3, 2, TOPO.n_procs), dtype=np.int64)
    counts[0, 0, 0] = 3
    counts[0, 1, 5] = 2
    counts[1, :, 4] = 2
    counts[2, 0, 1] = 1
    return _tensor_from(counts), CostModel(TOPO)


# --- key stability ----------------------------------------------------------


def test_same_inputs_same_key(small):
    tensor, model = small
    assert solve_key(tensor, model) == solve_key(tensor, model)


def test_equal_but_reordered_tensors_hash_alike(small):
    """Layout (C vs F order) and dtype width must not change the key."""
    tensor, model = small
    f_counts = np.asfortranarray(tensor.counts)
    assert not f_counts.flags["C_CONTIGUOUS"]
    clone = _tensor_from(f_counts)
    assert np.array_equal(clone.counts, tensor.counts)
    assert solve_key(clone, model) == solve_key(tensor, model)


def test_counts_change_misses(small):
    tensor, model = small
    bumped = np.array(tensor.counts)
    bumped[0, 0, 0] += 1
    assert solve_key(_tensor_from(bumped), model) != solve_key(tensor, model)


def test_volumes_change_misses(small):
    tensor, _ = small
    unit = CostModel(TOPO)
    heavy = CostModel(TOPO, volumes=np.full(tensor.n_data, 2.0))
    assert solve_key(tensor, heavy) != solve_key(tensor, unit)


def test_capacity_change_misses(small):
    tensor, model = small
    cap = CapacityPlan.paper_rule(tensor.n_data, TOPO.n_procs)
    assert solve_key(tensor, model, cap) != solve_key(tensor, model, None)


def test_algorithm_change_misses(small):
    tensor, model = small
    a = solve_key(tensor, model, algorithm="scds")
    b = solve_key(tensor, model, algorithm="gomcds")
    assert a != b
    # ...but algorithm naming is case-insensitive
    assert solve_key(tensor, model, algorithm="ScDs") == a


def test_semantic_option_change_misses(small):
    tensor, model = small
    plain = solve_key(tensor, model)
    certified = solve_key(tensor, model, options={"certify": True})
    assert plain != certified


def test_non_serializable_option_raises(small):
    tensor, model = small
    with pytest.raises(TypeError, match="content-addressable"):
        solve_key(tensor, model, options={"callback": lambda: None})


# --- the cache itself -------------------------------------------------------


def test_put_get_roundtrip(small):
    tensor, model = small
    cache = SolveCache()
    key = solve_key(tensor, model)
    assert cache.get(key) is None
    sched = schedule(tensor, model)
    frozen = cache.put(key, sched)
    hit = cache.get(key)
    assert hit is frozen
    assert np.array_equal(hit.centers, sched.centers)
    stats = cache.stats()
    assert stats == {
        "entries": 1,
        "maxsize": 256,
        "hits": 1,
        "misses": 1,
        "disk_hits": 0,
        "evictions": 0,
        "disk": None,
    }


def test_cached_schedules_are_deeply_frozen(small):
    tensor, model = small
    cache = SolveCache()
    key = solve_key(tensor, model)
    cache.put(key, schedule(tensor, model))
    hit = cache.get(key)
    assert hit.centers.flags.writeable is False
    with pytest.raises(ValueError):
        hit.centers[0, 0] = 99


def test_certificate_survives_the_cache(small):
    tensor, model = small
    cache = SolveCache()
    sched = schedule(tensor, model, certify=True)
    key = solve_key(tensor, model, options={"certify": True})
    cache.put(key, sched)
    cert = cache.get(key).meta["certificate"]
    assert cert["kind"] == "gomcds-potentials"
    assert np.array_equal(
        cert["potentials"], sched.meta["certificate"]["potentials"]
    )
    assert cert["potentials"].flags.writeable is False


def test_lru_evicts_oldest(small):
    tensor, model = small
    cache = SolveCache(maxsize=2)
    sched = schedule(tensor, model)
    for name in ("SCDS", "LOMCDS", "GOMCDS"):
        cache.put(solve_key(tensor, model, algorithm=name), sched)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    assert solve_key(tensor, model, algorithm="SCDS") not in cache
    assert solve_key(tensor, model, algorithm="GOMCDS") in cache


def test_lru_get_refreshes_recency(small):
    tensor, model = small
    cache = SolveCache(maxsize=2)
    sched = schedule(tensor, model)
    key_a = solve_key(tensor, model, algorithm="SCDS")
    key_b = solve_key(tensor, model, algorithm="LOMCDS")
    cache.put(key_a, sched)
    cache.put(key_b, sched)
    cache.get(key_a)  # A is now most recent
    cache.put(solve_key(tensor, model, algorithm="GOMCDS"), sched)
    assert key_a in cache
    assert key_b not in cache


def test_disk_store_roundtrip(tmp_path, small):
    tensor, model = small
    key = solve_key(tensor, model)
    writer = SolveCache(disk_dir=tmp_path)
    sched = schedule(tensor, model)
    writer.put(key, sched)

    reader = SolveCache(disk_dir=tmp_path)  # fresh process, cold memory
    hit = reader.get(key)
    assert hit is not None
    assert np.array_equal(hit.centers, sched.centers)
    assert hit.centers.flags.writeable is False  # re-frozen after pickle
    assert reader.stats()["disk_hits"] == 1


def test_corrupt_disk_entry_is_a_miss(tmp_path, small):
    tensor, model = small
    key = solve_key(tensor, model)
    cache = SolveCache(disk_dir=tmp_path)
    cache.put(key, schedule(tensor, model))
    path = next(tmp_path.glob("*.pkl"))
    path.write_bytes(b"not a pickle")
    cold = SolveCache(disk_dir=tmp_path)
    assert cold.get(key) is None
    assert cold.stats()["misses"] == 1


def test_deep_freeze_preserves_equality(small):
    tensor, model = small
    sched = schedule(tensor, model, certify=True)
    frozen = deep_freeze(sched)
    assert np.array_equal(frozen.centers, sched.centers)
    assert frozen.method == sched.method
    assert np.array_equal(
        frozen.meta["certificate"]["potentials"],
        sched.meta["certificate"]["potentials"],
    )


def test_clear_keeps_disk(tmp_path, small):
    tensor, model = small
    key = solve_key(tensor, model)
    cache = SolveCache(disk_dir=tmp_path)
    cache.put(key, schedule(tensor, model))
    cache.clear()
    assert len(cache) == 0
    assert cache.get(key) is not None  # reloaded from disk


def test_benchmark_instances_key_stably():
    """Rebuilding the same seeded workload yields the same address."""
    topo = Mesh2D(4, 4)
    model = CostModel(topo)
    keys = set()
    for _ in range(2):
        wl = make_benchmark(1, 8, topo, seed=1998)
        tensor = build_reference_tensor(wl.trace, wl.windows)
        keys.add(solve_key(tensor, model))
    assert len(keys) == 1
