"""fork_map: a function over a list, on every CPU the process may run on.

The work runs in forked worker processes, one per CPU in the process's
affinity mask (`taskset` limits it) up to the number of items, each taking
one item at a time. The function reaches the workers by fork inheritance
through one module global, so it may close over anything, picklable or
not; only the items and the results are pickled. Results come back in
input order, the values a serial loop gives whatever the number of CPUs.
"""

import multiprocessing
import os

_SHARED = None  # the running fork_map's function, inherited by forked workers


def _available_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _call_shared(item):
    return _SHARED(item)


def fork_map(fn, items):
    """Yield fn(item) for each item, in input order.

    With one worker the loop runs in this process. An exception raised for
    an item (a MinismtError, say) is raised here, with its class and
    message, once the results before it have been yielded, as a serial loop
    would.
    """
    global _SHARED
    items = list(items)
    workers = min(_available_cpus(), len(items))
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    # fork, not spawn: what fn reads reaches the workers unpickled.
    # minismt starts no thread of its own, and each pool's threads are joined
    # when its with-block ends; the fork start method flushes stdout and
    # stderr before each fork, so no buffered line is written twice
    _SHARED = fn
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            yield from pool.imap(_call_shared, items, chunksize=1)
    finally:
        _SHARED = None
