"""Report chunks written by forked child processes, for the report writer.

``cli._write_report`` imports this module only for a report it splits
over more than one process, so a report written by one process loads
neither it nor ``pickle`` or ``signal``. Each child starts as a copy of
the writer, with the tables' row sources and formatters and the open
spool files, and writes its chunks to a spool of its own; only the
writer opens the report. A failed child's error names it a ``report
writer process``, in either format.
"""

import os
import pickle
import signal

from .errors import InvariantViolation


def forked_map(fn, n: int, spools) -> list:
    """``[fn(k, spools[k % W]) for k in range(n)]`` with ``W =
    len(spools)``, chunk k done in process ``k % W``: this one, or one of
    ``W - 1`` children forked first.

    A child sends its results, or the ``OSError`` it hit, as one pickle
    through a pipe once its spool is flushed; the ``OSError`` is raised
    here, and a child that fails otherwise raises ``InvariantViolation``.
    Every child is reaped before this returns or raises, and one still
    running when this process fails is killed first.
    """
    workers = len(spools)
    pids, readers, sent = [], [], []
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            readers.append(open(rfd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(wfd, fn, range(w, n, workers), spools[w])
                pids.append(pid)
            finally:
                os.close(wfd)
        mine = [fn(k, spools[0]) for k in range(0, n, workers)]
        sent = [reader.read() for reader in readers]   # to the end: each child is done
    finally:
        for reader in readers:
            reader.close()
        for pid in pids[len(sent):]:
            os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code in zip(pids, codes):
        if code:
            raise InvariantViolation(f"report writer process {pid} exited with {code}")
    results = [None] * n
    results[::workers] = mine
    for w, data in enumerate(sent, 1):
        got = pickle.loads(data)
        if isinstance(got, OSError):
            raise got
        results[w::workers] = got
    return results


def _child(fd: int, fn, chunks, spool):
    """A forked child's work: ``fn(k, spool)`` for each chunk, then the
    results, or the ``OSError`` hit, pickled to the pipe ``fd``; it leaves
    through ``os._exit`` without flushing any inherited buffer or running
    exit hooks (status 1 on any other error)."""
    code = 1
    try:
        try:
            got = [fn(k, spool) for k in chunks]
            spool.flush()
        except OSError as exc:
            got = exc
        with open(fd, "wb") as pipe:
            pickle.dump(got, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)
