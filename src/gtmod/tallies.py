"""Check tallies, and window sweeps cut into chunks whose tallies merge.

A :class:`Tally` counts a suite's checks per check kind and keeps the first
few failures' exemplars.  :func:`in_chunks` is the one runner of the
window-wide sweeps (``commutators``, ``formulas`` and the layer checks of
``n3``): it cuts the ordered window into contiguous chunks, one per CPU of
the affinity mask, runs chunk 0 in the calling process and each other chunk
in an ``os.fork()`` child, and merges the chunks' tallies in chunk order
(:meth:`Tally.merge`), so a report is the same for any number of CPUs.  A
child sends its counts and exemplars back through a pipe by ``marshal``
(they are plain data), and an error that ended its chunk, with the
traceback text, by ``pickle``.

Each child has its own caches, copied from those of the calling process at
the fork, and its own memory: a process's peak RSS is that of its chunk, and
the run's is the sum over the processes.
"""

from __future__ import annotations

import marshal
import os

MAX_EXEMPLARS = 5


class Tally:
    """Accumulates exact check outcomes per check kind, in the order the
    kinds first come, and the first few failures."""

    def __init__(self):
        self.by_kind: dict[str, dict[str, int]] = {}
        self.exemplars: list[dict] = []

    @property
    def checked(self) -> int:
        return sum(counts["checked"] for counts in self.by_kind.values())

    @property
    def failed(self) -> int:
        return sum(counts["failed"] for counts in self.by_kind.values())

    def check(self, ok: bool, kind: str, detail) -> bool:
        """Count one check of ``kind``.  ``detail`` is a zero-argument
        function returning the exemplar's fields; it is called before this
        returns, and only for a failure that gets an exemplar slot, so it
        may read the caller's loop variables directly."""
        counts = self.by_kind.get(kind)
        if counts is None:
            counts = self.by_kind[kind] = {"checked": 0, "failed": 0}
        counts["checked"] += 1
        if not ok:
            counts["failed"] += 1
            if len(self.exemplars) < MAX_EXEMPLARS:
                self.exemplars.append({"check": kind, **detail()})
        return ok

    def merge(self, part: Tally, exc: Exception | None = None) -> None:
        """Take in the tally of the next chunk of a sweep, as if its checks had
        been counted here: its counts add up, and its exemplars fill the free
        slots in order.  Then raise ``exc``, the error that ended that chunk,
        if one did, so that no later chunk is taken in."""
        for kind, counts in part.by_kind.items():
            mine = self.by_kind.setdefault(kind, {"checked": 0, "failed": 0})
            mine["checked"] += counts["checked"]
            mine["failed"] += counts["failed"]
        self.exemplars.extend(part.exemplars[:MAX_EXEMPLARS - len(self.exemplars)])
        if exc is not None:
            raise exc


def _run_chunk(work, chunk: list) -> tuple[Tally, Exception | None]:
    """``work(chunk, tally)`` on a fresh tally: the tally, and the error that
    ended the chunk or None."""
    part = Tally()
    try:
        work(chunk, part)
    except Exception as exc:  # any error: merge re-raises it in chunk order
        return part, exc
    return part, None


class _ChunkTraceback(Exception):
    """The traceback of an error raised in a forked chunk worker, set as the
    ``__cause__`` of the error the parent re-raises, so that it points at
    the child's frames rather than at the merge."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _chunk_bytes(part: Tally, exc: Exception | None) -> bytes:
    """A chunk's result as bytes: its counts and exemplars by ``marshal``,
    and the error that ended it, if any, by :func:`_error_bytes`.  A result
    ``marshal`` cannot send (an exemplar field that is not plain data) is
    sent as a RuntimeError naming it, so the parent never sees a bare exit
    status."""
    try:
        blob = None if exc is None else _error_bytes(exc)
        return marshal.dumps((part.by_kind, part.exemplars, blob))
    except Exception as failure:  # a program fault: report it, not the counts
        error = RuntimeError(f"a chunk's result cannot be sent back: {failure!r}")
        error.__cause__ = failure
        return marshal.dumps(({}, [], _error_bytes(error)))


def _error_bytes(exc: Exception) -> bytes:
    """``exc`` and its traceback text, by ``pickle``, which is imported only
    when a chunk raised (loading it would add to every run's memory); an
    error that does not load back is sent as a RuntimeError naming it."""
    import pickle
    import traceback
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        blob = pickle.dumps((exc, text))
        pickle.loads(blob)
    except Exception:
        blob = pickle.dumps((RuntimeError(
            f"a chunk's error cannot be sent back by pickle: {exc!r}"), text))
    return blob


def _chunk_result(data: bytes) -> tuple[Tally, Exception | None]:
    """The chunk result :func:`_chunk_bytes` made, as a tally and an error
    (these bytes come only from this program's own forked children)."""
    part = Tally()
    part.by_kind, part.exemplars, blob = marshal.loads(data)
    if blob is None:
        return part, None
    import pickle
    exc, text = pickle.loads(blob)
    exc.__cause__ = _ChunkTraceback(text)
    return part, exc


def in_chunks(items: list, work, tally: Tally) -> None:
    """``work(chunk, tally)`` over contiguous chunks of ``items``, one per CPU
    in this process's affinity mask (at most one per item), merged into
    ``tally`` in chunk order (:meth:`Tally.merge`), so that the counts, the
    exemplars and an error that ends the sweep are those of
    ``work(items, tally)``.

    Chunk 0 runs here, and each later chunk in an ``os.fork()`` child, on
    the objects ``work`` closes over as they were at the fork; with one
    chunk nothing is forked.  A child sends back its tally and error through
    a pipe and exits.  Every child is read and reaped before this returns or
    raises; one that ends without sending its result is a
    ``ChildProcessError``.  A check a child makes is seen by no wrapper
    installed in this process."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = max(1, min(cpus, len(items)))
    bounds = [len(items) * index // count for index in range(count + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    children = []
    try:
        for chunk in chunks[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: run the chunk, send its result, never return
                status = 1
                try:
                    os.close(read)
                    data = _chunk_bytes(*_run_chunk(work, chunk))
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, read))
        first = _run_chunk(work, chunks[0])
    finally:
        ends = []
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                data = pipe.read()
            ends.append((data, os.waitpid(pid, 0)[1]))
    tally.merge(*first)
    for data, status in ends:
        if status:
            raise ChildProcessError(f"a chunk worker ended with wait status {status}")
        tally.merge(*_chunk_result(data))
