"""Split a sweep's work over the CPUs this process may run on.

The items of a sweep are cut into chunks of consecutive positions, numbered
0..k-1.  A split sweep forks one child per CPU.  The numbers of all chunks
but the last wait in a pipe, one byte each, and every child takes the next
one whenever it is free, so a child that gets less CPU time (another program
on its CPU, a late start) takes fewer chunks and no child waits for a share
fixed in advance.  The process itself computes the last chunk while its
children start: a fixed share, so that a tracer in the process sees the same
calls in every run.  Each child sends the results of its chunks back through
its own pipe in marshal form, and ends with os._exit: it flushes no
inherited buffer and runs none of the parent's cleanup.  The results are
returned in chunk order, so the caller's merge does not depend on which
process computed what.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, Dict, List, Sequence, Tuple

# Fewest items per child: a sweep with fewer than this many items per CPU
# forks fewer children, and one with fewer than twice as many runs serially.
# Timed as sweep calls in fresh processes on two CPUs, split against run on
# one CPU (medians of 15, in CHANGES.md), splitting lost 1.9 ms at 128 items
# and gained from about 200.
_SHARE_ITEMS = 100
# Fewest items per chunk: one chunk of sweep items takes about 1 ms, against
# a few microseconds to hand out its number.
_CHUNK_ITEMS = 16
# Chunk numbers travel as single bytes, which no two readers of one pipe can
# split between them.
_MOST_CHUNKS = 256

Work = Callable[[int, int], object]


def worker_count(items: int) -> int:
    """Children to fork for a sweep of items, or 0 to run it serially: one
    per CPU this process may run on, but no more than items // _SHARE_ITEMS.

    A process that runs more than one thread runs serially: a child forked
    from it could wait forever on a lock that another thread held.
    """
    threading = sys.modules.get("threading")  # never imported just for this
    if threading is not None and threading.active_count() > 1:
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: run serially
        return 0
    workers = min(cpus, items // _SHARE_ITEMS)
    return workers if workers > 1 else 0


def chunk_bounds(items: int) -> List[Tuple[int, int]]:
    """The chunks of a split sweep of items, as (start, stop) in order: at
    least _CHUNK_ITEMS positions each (but the last), at most _MOST_CHUNKS."""
    size = max(_CHUNK_ITEMS, -(-items // _MOST_CHUNKS))
    return [(start, min(start + size, items)) for start in range(0, items, size)]


def run_chunks(work: Work, items: int, workers: int) -> List[object]:
    """work(start, stop) over consecutive ranges that cover range(items), the
    results in range order.

    With no workers this is [work(0, items)].  Otherwise it is one result per
    chunk_bounds(items): the last computed here, each other one in one of
    workers forked children.  work's results must be marshal-able.  A chunk
    that no child reports, its child having exited non-zero or sent what
    marshal cannot read, is computed here, the chunks in order, so that an
    error is raised as a serial run raises it.  Whatever happens, every
    child has been reaped when this returns or raises: one still running is
    killed with SIGKILL first.
    """
    if not workers:
        return [work(0, items)]
    bounds = chunk_bounds(items)
    last = len(bounds) - 1
    done: Dict[int, object] = {}
    children: List[int] = []  # forked and not yet reaped
    pipes: Dict[int, int] = {}  # child -> read end of its result pipe, until read
    try:
        tokens, fill = os.pipe()
        try:
            os.write(fill, bytes(range(last)))  # under PIPE_BUF: one write
        finally:
            os.close(fill)
        try:
            for _ in range(workers):
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(work, bounds, tokens, write_fd)
                except OSError:  # no process to spare: the others take its chunks
                    os.close(read_fd)
                    break
                finally:
                    os.close(write_fd)
                children.append(pid)
                pipes[pid] = read_fd
        finally:
            os.close(tokens)
        try:
            done[last] = work(*bounds[last])
        except Exception:
            pass  # computed again below, after any chunk whose error comes first
        for pid in tuple(children):
            with open(pipes[pid], "rb") as pipe:
                del pipes[pid]  # the file closes it from here on
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.remove(pid)
            if status == 0:
                try:
                    done.update(marshal.loads(data))
                except (EOFError, ValueError, TypeError):
                    pass
        return [done[c] if c in done else work(*b) for c, b in enumerate(bounds)]
    finally:
        for fd in pipes.values():
            os.close(fd)
        if children:
            import signal  # only here: importing it costs about 1 ms

            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve(work: Work, bounds: Sequence[Tuple[int, int]], tokens: int, write_fd: int) -> None:
    """In a forked child: take chunk numbers from tokens until none is left,
    write marshal([(chunk, work(start, stop)), ...]) to write_fd and exit 0,
    or exit 1 on any exception, without returning to the caller."""
    code = 1
    try:
        done = []
        for token in iter(lambda: os.read(tokens, 1), b""):
            done.append((token[0], work(*bounds[token[0]])))
        with open(write_fd, "wb") as pipe:
            pipe.write(marshal.dumps(done))
        code = 0
    finally:
        os._exit(code)
