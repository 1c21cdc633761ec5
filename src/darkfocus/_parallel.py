"""The one way darkfocus runs work on more than one core.

ordered_map(fn, items) is map(fn, items) with the calls of fn on a thread
pool as wide as the cores this process may run on, as
os.sched_getaffinity reports them (taskset or a cpuset narrows it).
Threads pay where fn spends its time in numpy or compiled code that
releases the interpreter lock.  The items are produced on the calling
thread, results and errors come out in item order, and no thread outlives
the iteration.  State fn builds lazily and shares, such as
darkfocus._compiled.load(), must be built by the caller beforehand, and
fn must not warn: a warning raised on a pool thread names that thread's
code, not the caller's line.  The compiled reader's pieces, the compiled
writer's blocks, every batch of runs (darkfocus.dynamics._map_runs: each
run started on the calling thread and finished by fn), the runs an
ensemble steps straight into its pooled array (darkfocus.dynamics's
_pool_runs, started and finished alike), the blocks of rows of the KS null
table (darkfocus.calibration._ks_null_table) and the three threaded stages
of a potential reconstruction (darkfocus.calibration's _support_bounds, two
passes over blocks of rows, and the _fold_counts folds) are the eight paths
that use it.  No result is kept once it is yielded, so a consumer that
drops each result before asking for the next holds it and at most width()
calls in flight (darkfocus.dynamics.pooled_positions).
"""

import os
from collections import deque
from collections.abc import Sized
from concurrent.futures import ThreadPoolExecutor


def width() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def ordered_map(fn, items):
    """The results of fn over items, in item order.  At width 1, and for a
    sized collection of fewer than two items, this is map(fn, items), on
    the calling thread.  Otherwise items is consumed on the calling thread
    while at most width() calls of fn are pending on a pool of width()
    threads, which is shut down when the iteration ends.  Errors come out
    in serial order: when producing an item raises, the results of the
    items before it come out first."""
    n = width()
    if n == 1 or (isinstance(items, Sized) and len(items) < 2):
        return map(fn, items)
    return _threaded_map(fn, items, n)


def _threaded_map(fn, items, n):
    items = iter(items)
    pending = deque()
    with ThreadPoolExecutor(n) as pool:
        while True:
            try:
                item = next(items)
            except StopIteration:
                break
            except Exception:
                # an error of an earlier item's fn comes out before this one
                while pending:
                    yield pending.popleft().result()
                raise
            pending.append(pool.submit(fn, item))
            del item  # the pool holds it until fn has run
            if len(pending) == n:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
