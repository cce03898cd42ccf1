"""CSV chunks formatted in forked child processes, written in order.

``cli._write_csv`` imports this module only for a table it splits over
more than one process, so commands that write small tables or JSON do
not compile it. Each child starts as a copy of the writer, with the
table's columns and row formatter, and sends its chunks back through a
pipe; only the writer touches the report file.
"""

import contextlib
import fcntl
import os

from .errors import InvariantViolation

# bytes asked for each pipe that carries formatted chunks to the writer
_PIPE_BYTES = 1 << 20


def write_forked(out, text, n_chunks: int, workers: int, encoding: str) -> None:
    """Write the encoded ``text(k)`` of chunks ``0 .. n_chunks - 1`` to the
    binary file ``out``, formatting chunk k in process ``k % workers``.

    Each of the ``workers - 1`` forked children sends its chunks, each as
    an 8-byte length and the encoded text, through a pipe of its own
    (enlarged to ``_PIPE_BYTES`` where the system allows, so a child can
    format its next chunk while the last one waits). Children never touch
    ``out``. Every child is reaped before this returns or raises; a child
    that fails or ends early raises ``InvariantViolation``.
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
                    _format_chunks(wfd, text, range(w, n_chunks, workers), encoding)
                pids.append(pid)
            finally:
                os.close(wfd)
        for k in range(n_chunks):
            w = k % workers
            out.write(text(k).encode(encoding) if w == 0
                      else _read_chunk(readers[w - 1], pids[w - 1], k))
    finally:
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code in zip(pids, codes):
        if code:
            raise InvariantViolation(f"CSV formatter process {pid} exited with {code}")


def _format_chunks(fd: int, text, chunks, encoding: str):
    """A forked child's work: send each chunk's encoded text, length first,
    to the pipe ``fd``, then leave through ``os._exit`` without flushing
    any inherited buffer or running exit hooks (status 1 on any error)."""
    code = 1
    try:
        with open(fd, "wb", closefd=False) as pipe:
            for k in chunks:
                data = text(k).encode(encoding)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _read_chunk(reader, pid: int, k: int) -> bytes:
    """The encoded text of chunk ``k`` from child ``pid``'s pipe."""
    head = reader.read(8)
    size = int.from_bytes(head, "little")
    data = reader.read(size)
    if len(head) < 8 or len(data) < size:
        raise InvariantViolation(
            f"CSV formatter process {pid} ended before sending chunk {k}")
    return data
