"""Order-preserving parallel map over independent units in forked workers.

Maps nest: the CLI maps over stage chains or sweep points, and the Gibbs
sampler maps each call's chains inside them.  A process's CPU budget starts
at its usable CPUs; a map with w workers gives each of them, its own share
included, budget // w, so a unit that already has a CPU of its own runs its
nested maps serially instead of forking more processes than there are CPUs.
"""

from __future__ import annotations

import os
import pickle
import sys

_budget = None   # CPUs this process's maps may use; None: every usable one
_peak = 1        # most processes the running share has kept busy at once


def usable_cpus() -> int:
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def workers(n_items: int) -> int:
    """Processes a map over n_items independent units uses."""
    if not hasattr(os, "fork"):
        return 1
    budget = usable_cpus() if _budget is None else _budget
    return max(1, min(n_items, budget))


def _share(fn, items):
    """fn over items up to the first failure: (results, exception or None,
    the most processes its nested maps kept busy at once)."""
    global _peak
    _peak = 1
    results = []
    try:
        for item in items:
            results.append(fn(item))
    except Exception as exc:
        return results, exc, _peak
    return results, None, _peak


def _child_share(fn, items, write_fd: int):
    """Body of a forked worker: run its share, pickle it into the pipe and
    exit without ever returning into the parent's stack."""
    status = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(_share(fn, items), pipe)
        status = 0
    finally:
        os._exit(status)


def parallel_map(fn, items) -> tuple:
    """([fn(item) for item in items], the most processes that ran fn at
    once, nested maps included), with the items dealt round-robin to
    workers(len(items)) processes: this one runs the first share and forked
    children the others, each sending its results back through a pipe.

    fn must print nothing and leave no state that later code reads, since a
    child's side effects other than its files are lost.  If items fail, the
    exception of the first failing one is raised, as the plain loop would,
    and only after every child has been reaped.

    Fork, not spawn: a spawned worker imports numpy and nlsic again, tens of
    milliseconds that a short evaluate would pay.  nlsic starts no threads,
    and OpenBLAS shuts its thread pool down at fork."""
    global _budget, _peak
    items = list(items)
    n = workers(len(items))
    saved_budget, saved_peak = _budget, _peak
    _budget = (usable_cpus() if _budget is None else _budget) // n
    children, statuses = [], []
    try:
        if n > 1:
            # else a child that flushes would write this process's output twice
            sys.stdout.flush()
            sys.stderr.flush()
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child_share(fn, items[w::n], write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        shares = [_share(fn, items[0::n])]
        blobs = [pipe.read() for _, pipe in children]
    finally:
        # closing first unblocks a child still writing to a pipe not read
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        _budget, _peak = saved_budget, saved_peak
    for blob, status in zip(blobs, statuses):
        if status != 0:
            raise RuntimeError(f"worker process exited with status {status}")
        shares.append(pickle.loads(blob))
    processes = sum(peak for _, _, peak in shares)
    _peak = max(saved_peak, processes)
    failures = [(w + n * len(results), exc)
                for w, (results, exc, _) in enumerate(shares) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    out = [None] * len(items)
    for w, (results, _, _) in enumerate(shares):
        out[w::n] = results
    return out, processes
