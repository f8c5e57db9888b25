"""Check tallies, and window sweeps cut into chunks whose tallies merge.

A :class:`Tally` counts a suite's checks per check kind and keeps the first
few failures' exemplars.  :func:`in_chunks` is the one runner of the
window-wide sweeps (``commutators``, ``formulas`` and the layer checks of
``n3``): it cuts the ordered window into contiguous chunks, one per CPU of
the affinity mask, runs chunk 0 in the calling process and each other chunk
in an ``os.fork()`` child, and merges the chunks' tallies in chunk order
(:meth:`Tally.merge`), so a report is the same for any number of CPUs.  A
child whose chunk ended cleanly sends its counts and exemplars back through
a pipe by ``marshal`` (they are plain data).  A chunk that raised, or whose
tally ``marshal`` cannot encode, sends nothing: the sweeps are
deterministic, so the calling process runs that chunk again when the merge
reaches it, and raises its error itself.

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

    def merge(self, part: Tally) -> None:
        """Take in the tally of the next chunk of a sweep, as if its checks had
        been counted here: its counts add up, and its exemplars fill the free
        slots in order."""
        for kind, counts in part.by_kind.items():
            mine = self.by_kind.setdefault(kind, {"checked": 0, "failed": 0})
            mine["checked"] += counts["checked"]
            mine["failed"] += counts["failed"]
        self.exemplars.extend(part.exemplars[:MAX_EXEMPLARS - len(self.exemplars)])


def _run_chunk(work, chunk: list) -> tuple[Tally, Exception | None]:
    """``work(chunk, tally)`` on a fresh tally: the tally, and the error that
    ended the chunk or None.  Every chunk runs through this: in its child,
    and here for chunk 0 and for a forked chunk whose child sent nothing."""
    part = Tally()
    try:
        work(chunk, part)
    except Exception as exc:  # any error: in_chunks raises it in chunk order
        return part, exc
    return part, None


def _chunk_bytes(part: Tally, exc: Exception | None) -> bytes:
    """A clean chunk's counts and exemplars by ``marshal``; nothing for a
    chunk that raised or whose exemplars are not plain data."""
    if exc is None:
        try:
            return marshal.dumps((part.by_kind, part.exemplars))
        except ValueError:  # an exemplar field marshal cannot encode
            pass
    return b""


def in_chunks(items: list, work, tally: Tally) -> None:
    """``work(chunk, tally)`` over contiguous chunks of ``items``, one per CPU
    in this process's affinity mask (at most one per item), merged into
    ``tally`` in chunk order (:meth:`Tally.merge`), so that the counts, the
    exemplars and an error that ends the sweep are those of
    ``work(items, tally)``.

    Chunk 0 runs here, and each later chunk in an ``os.fork()`` child, on
    the objects ``work`` closes over as they were at the fork; with one
    chunk nothing is forked.  A child sends its tally back through a pipe
    if its chunk ended cleanly and ``marshal`` can encode it, else nothing;
    when the merge reaches a chunk whose child sent nothing, that chunk runs
    again here (the sweeps are deterministic, and the first error ends the
    merge, so at most one chunk that raised runs twice), and its error is
    raised with this process's traceback.  Every child is read and reaped
    before this returns or raises; one that exits nonzero is a
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
    for chunk, (data, status) in zip(chunks, [(None, 0)] + ends):
        if status:
            raise ChildProcessError(f"a chunk worker ended with wait status {status}")
        if data:
            part, exc = Tally(), None
            part.by_kind, part.exemplars = marshal.loads(data)
        else:  # chunk 0, or a forked chunk that raised or is not plain data
            part, exc = first if data is None else _run_chunk(work, chunk)
        tally.merge(part)
        if exc is not None:
            raise exc
