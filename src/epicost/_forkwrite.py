"""An ordered map over forked child processes, for the report writer.

``cli._write_report`` imports this module only for a report it splits
over more than one process, so commands that write small reports do not
compile it. Each child starts as a copy of the writer, with the tables'
row sources and formatters, and sends its results back through a pipe;
only the writer touches the report file. A failed child's error names it
a ``CSV formatter process`` whatever the report's format.
"""

import contextlib
import fcntl
import os
import pickle

from .errors import InvariantViolation

# bytes asked for each pipe that carries results to the writer
_PIPE_BYTES = 1 << 20


def forked_map(fn, n: int, workers: int):
    """Yield ``fn(k)`` for ``k = 0 .. n - 1`` in order, computing chunk k
    in process ``k % workers``: this one, or one of ``workers - 1``
    children forked at the first request.

    Each child sends its results, each pickled behind an 8-byte length,
    through a pipe of its own (enlarged to ``_PIPE_BYTES`` where the
    system allows, so a child can go on to its next chunk while the last
    one waits). Every child is reaped before the generator finishes or is
    closed; a child that fails or ends early raises
    ``InvariantViolation``. Close the generator (``contextlib.closing``)
    when it may be left unfinished.
    """
    readers, pids = [], []
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            readers.append(open(rfd, "rb"))
            try:
                with contextlib.suppress(AttributeError, OSError):
                    fcntl.fcntl(wfd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
                pid = os.fork()
                if pid == 0:
                    for reader in readers:
                        reader.close()
                    _format_chunks(wfd, fn, range(w, n, workers))
                pids.append(pid)
            finally:
                os.close(wfd)
        for k in range(n):
            w = k % workers
            yield (fn(k) if w == 0
                   else pickle.loads(_read_chunk(readers[w - 1], pids[w - 1], k)))
    finally:
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code in zip(pids, codes):
        if code:
            raise InvariantViolation(f"CSV formatter process {pid} exited with {code}")


def _format_chunks(fd: int, fn, chunks):
    """A forked child's work: send each chunk's pickled ``fn(k)``, length
    first, to the pipe ``fd``, then leave through ``os._exit`` without
    flushing any inherited buffer or running exit hooks (status 1 on any
    error)."""
    code = 1
    try:
        with open(fd, "wb", closefd=False) as pipe:
            for k in chunks:
                data = pickle.dumps(fn(k), protocol=pickle.HIGHEST_PROTOCOL)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                pipe.flush()   # a small result must not wait for the next
                del data       # before the next is made
        code = 0
    finally:
        os._exit(code)


def _read_chunk(reader, pid: int, k: int) -> bytes:
    """The pickled result of chunk ``k`` from child ``pid``'s pipe."""
    head = reader.read(8)
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    if len(head) < 8 or len(data) < size:
        raise InvariantViolation(
            f"CSV formatter process {pid} ended before sending chunk {k}")
    return data
