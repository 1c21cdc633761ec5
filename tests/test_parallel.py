"""darkfocus._parallel.ordered_map: map(fn, items) with fn on a thread pool
as wide as the usable cores, results and errors in item order, and no
thread left behind."""

import os
import threading
import time

import pytest

from darkfocus import _parallel


def set_width(monkeypatch, width):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(width)))


def test_width_follows_cpu_affinity(monkeypatch):
    set_width(monkeypatch, 3)
    assert _parallel.width() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _parallel.width() == 1


@pytest.mark.parametrize("width", [1, 2, 3])
def test_results_come_in_item_order(monkeypatch, width):
    set_width(monkeypatch, width)
    before = threading.active_count()

    def slow_first(k):
        # later items finish first
        time.sleep(0.002 * (10 - k))
        return k * k

    assert list(_parallel.ordered_map(slow_first, range(10))) == [k * k for k in range(10)]
    assert threading.active_count() == before


def test_width_one_is_map_on_the_calling_thread(monkeypatch):
    set_width(monkeypatch, 1)
    before = threading.active_count()
    seen = []

    def record(k):
        seen.append((threading.current_thread(), threading.active_count()))
        return k

    results = _parallel.ordered_map(record, range(4))
    assert isinstance(results, map)
    assert list(results) == [0, 1, 2, 3]
    assert seen == [(threading.current_thread(), before)] * 4


@pytest.mark.parametrize("items", [[], [7], range(1)])
def test_fewer_than_two_items_run_on_the_calling_thread(monkeypatch, items):
    set_width(monkeypatch, 2)
    before = threading.active_count()
    seen = []

    def record(k):
        seen.append((threading.current_thread(), threading.active_count()))
        return -k

    results = _parallel.ordered_map(record, items)
    assert isinstance(results, map)
    assert list(results) == [-k for k in items]
    assert seen == [(threading.current_thread(), before)] * len(items)


@pytest.mark.parametrize("width", [2, 3])
def test_at_most_width_calls_pending(monkeypatch, width):
    set_width(monkeypatch, width)
    produced, started = [], []

    def items():
        for k in range(12):
            produced.append(k)
            yield k

    def fn(k):
        started.append((k, len(produced)))
        return k

    assert list(_parallel.ordered_map(fn, items())) == list(range(12))
    # the next item is produced only once the oldest pending result is out
    for k, n_produced in started:
        assert n_produced <= k + width


@pytest.mark.parametrize("width", [1, 2, 3])
def test_an_earlier_fn_error_wins(monkeypatch, width):
    # item 1's fn is still running when producing item 2 raises
    set_width(monkeypatch, width)
    before = threading.active_count()
    out = []

    def items():
        yield from range(2)
        raise KeyError("producer")

    def fn(k):
        if k == 1:
            time.sleep(0.01)
            raise ValueError("item 1")
        return k

    with pytest.raises(ValueError, match="item 1"):
        for result in _parallel.ordered_map(fn, items()):
            out.append(result)
    assert out == [0]
    assert threading.active_count() == before


@pytest.mark.parametrize("width", [1, 2, 3])
def test_producer_error_after_the_pending_results(monkeypatch, width):
    set_width(monkeypatch, width)
    before = threading.active_count()
    out = []

    def items():
        yield from range(5)
        raise KeyError("producer")

    def fn(k):
        time.sleep(0.002)
        return -k

    with pytest.raises(KeyError, match="producer"):
        for result in _parallel.ordered_map(fn, items()):
            out.append(result)
    assert out == [0, -1, -2, -3, -4]
    assert threading.active_count() == before


def test_threads_end_when_the_consumer_stops(monkeypatch):
    set_width(monkeypatch, 2)
    before = threading.active_count()
    results = _parallel.ordered_map(lambda k: k, range(100))
    assert next(results) == 0
    results.close()
    assert threading.active_count() == before
