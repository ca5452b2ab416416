"""Work spread over the cores this process may run on, one thread per run.

``forward`` and the exact cut norm's subset enumeration cut their work
into contiguous runs and hand them to ``spread``. Numpy releases the GIL
in the products and the ufuncs that fill the runs, so the threads run
side by side. Callers allocate each run's buffers before the call, on the
calling thread: allocations on the workers would grow one glibc arena per
thread, which keeps its pages resident.
"""

import os
import threading


def cores():
    """The number of cores this process may run on."""
    # sched_getaffinity is missing off Linux
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def spread(run, workers):
    """``[run(k) for k in range(workers)]``, each call on its own thread.

    ``run(0)`` runs on the calling thread and the others on threads started
    here, all joined before the call returns, also when one of them fails.
    The first error a worker raised is raised again on the calling thread.
    """
    results = [None] * workers
    errors = []

    def guarded(k):
        try:
            results[k] = run(k)
        except Exception as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(k,)) for k in range(1, workers)]
    try:
        for t in threads:
            t.start()
        results[0] = run(0)
    finally:
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[0]
    return results
