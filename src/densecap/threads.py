"""Work spread over the cores this process may run on, one thread per run.

``forward`` and the exact cut norm's subset enumeration cut their work
into contiguous runs and hand them to ``spread``. Numpy releases the GIL
in the products and the ufuncs that fill the runs, so the threads run
side by side. Callers allocate each run's buffers before the call, on the
calling thread: allocations on the workers would grow one glibc arena per
thread, which keeps its pages resident.
"""

import os


def cores():
    """The number of cores this process may run on."""
    # sched_getaffinity is missing off Linux
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def spread(run, workers):
    """``[run(k) for k in range(workers)]``, each call on its own thread.

    ``run(0)`` runs on the calling thread and the others on a pool of
    ``workers - 1`` threads, all joined before the call returns, also when
    one of them fails. The error of the lowest failing k is raised on the
    calling thread, whichever run failed first in time.
    """
    if workers < 2:  # no thread to start
        return [run(0)]
    # imported here: concurrent.futures imports logging, which
    # ``import densecap`` and single-threaded calls should not pay for
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(run, k) for k in range(1, workers)]
        first = run(0)
    return [first] + [f.result() for f in futures]
