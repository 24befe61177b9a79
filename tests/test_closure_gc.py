"""``enumerate_closure`` pauses the cyclic collector and restores its state.

The pause is what keeps the collector from walking every live member
while a closure is built; ``test_no_cycles`` pins that it misses no
garbage.
"""

import gc
import weakref

import pytest

from dtlab.closure import enumerate_closure
from dtlab.randgen import random_table
from dtlab.tables import DecisionTable

TABLE = random_table(2, 3, 5, seed=7)


@pytest.fixture
def collector():
    """Restore the collector state the test found, whatever it does."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    enumerate_closure([TABLE])
    assert gc.isenabled() == enabled


def test_collector_restored_after_exception(collector, monkeypatch):
    # members are built by setting their fields, so the failure is planted
    # in the setter of a table's first field: the constructor of each
    # projection and the map pass that builds the members both call it
    paused = []
    slot = DecisionTable.k

    def set_k(table, k):
        if len(paused) == 4:
            raise RuntimeError("fifth table")
        paused.append(not gc.isenabled())
        slot.__set__(table, k)

    monkeypatch.setattr(DecisionTable, "k", property(slot.__get__, set_k))
    gc.enable()
    with pytest.raises(RuntimeError, match="fifth table"):
        enumerate_closure([TABLE])
    assert paused == [True] * 4
    assert gc.isenabled()


def test_enumeration_runs_no_collection(collector):
    # about 6.5k members, far past the young generation's threshold, so a
    # walk that left the collector on would run collections
    gc.enable()
    table = random_table(2, 4, 12)
    gc.collect()
    before = gc.get_stats()
    enum = enumerate_closure([table])
    # the first allocation after the call collects; get_stats reads the
    # counts before it allocates, and nothing allocates before it
    after = gc.get_stats()
    assert len(enum.members) > 5 * gc.get_threshold()[0]
    assert [s["collections"] for s in after] == [s["collections"] for s in before]


class Cycle:
    def __init__(self):
        self.me = self


def test_garbage_made_between_calls_is_freed_without_an_explicit_collect(collector):
    # a call must not move the caller's young garbage past the young
    # collections, as promoting every tracked object to the oldest
    # generation on exit would: then only a full collection frees it
    gc.enable()
    gc.collect()
    threshold = gc.get_threshold()[0]
    refs = []
    for _ in range(60):
        enumerate_closure([TABLE])
        for _ in range(threshold // 20):
            refs.append(weakref.ref(Cycle()))
    assert len(refs) >= 3 * threshold
    assert sum(r() is not None for r in refs) < threshold
