"""propcal's one worker pool: ``_ordered_map`` over forked processes, on the count of ``_map_workers``.

It imports nothing from propcal, so every layer can import it, and it imports the pool only when a map forks.
"""

import os
from collections import deque
from typing import Callable, Iterator, Sequence

_worker_fn = None  # in a worker of _ordered_map, the function it maps; None in every other process


def _map_workers(n_tasks: int) -> int:
    """The forked workers ``_ordered_map`` runs ``n_tasks`` tasks on: one per CPU, at most one per task.

    1 means the tasks run inline: for one task, on one CPU, inside a worker
    (a nested map) or on a platform that cannot fork.
    """
    if _worker_fn is not None or n_tasks < 2 or not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, n_tasks)


def _start_worker(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_task(task):
    return _worker_fn(task)


def _ordered_map(fn: Callable, tasks: Sequence) -> Iterator:
    """``fn(task)`` for each task, yielded in task order, computed by ``_map_workers(len(tasks))`` workers.

    The workers are forked, so ``fn`` reaches them without pickling and may
    close over the caller's data; tasks and results are pickled. At most two
    tasks per worker are in flight, so results wait for a slow consumer in
    bounded memory, and the caller only collects them. With one worker each
    task runs here as its result is taken. A worker's exception is raised
    here, and a worker that died raises ``BrokenProcessPool``, a
    RuntimeError; ``cli.dispatch`` reports either as one line. Every worker
    is joined before the generator ends, raises or is closed.
    """
    workers = _map_workers(len(tasks))
    if workers < 2:
        yield from map(fn, tasks)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy and propcal again, and could not be handed fn
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn,))
    try:
        in_flight: deque = deque()
        for task in tasks:
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(_run_task, task))
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
