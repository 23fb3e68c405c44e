"""Measurement-stream ingestion, normalization and checkpoint scheduling.

Raw traces arrive as text lines ``<time> <src> <dst>`` sorted by time.
Normalization keeps only the first discovery of each undirected link, turns
loops into bare node discoveries, and maps opaque endpoint tokens to dense
integer indices in order of first appearance. The result is an
:class:`ArrivalStream`, the canonical replay input for everything downstream.

A checkpoint is the graph observed "as soon as the k-th node was discovered".
Because a single link can reveal two nodes at once, a checkpoint may overshoot
its target by one; the actual count is recorded. ``replay_to`` locates the
stream position for a target count, and ``checkpoint_sizes`` produces the
standard schedule of target counts (percent-style steps of the final size).

The binary sidecar of :func:`save_cache` and :func:`load_cache` holds an
:class:`ArrivalStream`'s own four columns, so a rerun reads the stream back
without parsing or rebuilding anything.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

CACHE_MAGIC = b"NRSTRM03"

_CACHE_HEADER = "<2Q3q"  # final_n, final_m, then the cache_key fields
# The ArrivalStream columns u, v, time, node_count_prefix, one after another.
_CACHE_COLUMNS = (np.dtype("<i4"), np.dtype("<i4"), np.dtype("<u8"), np.dtype("<i8"))

_MAX_NODE = 2**31 - 1


class StreamFormatError(ValueError):
    """An input line violates the stream format."""


@dataclass(frozen=True)
class RawEvent:
    """One trace line: a timestamped, possibly redundant link observation."""

    time: int
    src: str
    dst: str


@dataclass(frozen=True)
class FormatOptions:
    """Parse-time switches for nonstandard trace layouts."""

    no_time: bool = False  # lines are `<src> <dst>`; synthesize 0,1,2,...


@dataclass(frozen=True)
class ArrivalStream:
    """Normalized link arrivals plus enough bookkeeping to replay them.

    ``u``, ``v``, ``time`` are parallel arrays, one entry per surviving link
    event. ``node_count_prefix[i]`` is the number of distinct nodes discovered
    once event i and any node-only discoveries that precede event i+1 (or the
    end of the trace) are consumed; it is non-decreasing and ends at
    ``final_n``. Nodes discovered only by loops never appear as endpoints but
    are counted.
    """

    u: np.ndarray
    v: np.ndarray
    time: np.ndarray
    node_count_prefix: np.ndarray
    final_n: int
    final_m: int

    def __post_init__(self):
        for a in (self.u, self.v, self.time, self.node_count_prefix):
            a.setflags(write=False)

    @property
    def n_events(self) -> int:
        return int(self.u.size)


def open_event_file(path: str):
    """Open a trace for reading, transparently decompressing ``.gz``."""
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def parse_event_stream(
    reader: Iterable[str], options: FormatOptions = FormatOptions()
) -> Iterator[RawEvent]:
    """Parse trace lines into events, validating order as we go.

    Blank lines and lines starting with ``#`` are skipped. Malformed lines
    and timestamp regressions raise StreamFormatError with the 1-based line
    number. Timestamps must be integers in [0, 2^64), the range the
    normalized stream and its cache store. Input that cannot be read on
    (truncated or corrupt gzip, bytes that are not UTF-8) raises
    StreamFormatError naming the last line read whole.
    """
    last_time = None
    synthetic = 0
    lineno = 0
    try:
        for lineno, line in enumerate(reader, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if options.no_time:
                if len(parts) != 2:
                    raise StreamFormatError(f"malformed line {lineno}: expected '<src> <dst>'")
                t = synthetic
                synthetic += 1
                src, dst = parts
            else:
                if len(parts) != 3:
                    raise StreamFormatError(
                        f"malformed line {lineno}: expected '<time> <src> <dst>'"
                    )
                try:
                    t = int(parts[0])
                except ValueError:
                    raise StreamFormatError(
                        f"malformed line {lineno}: bad timestamp {parts[0]!r}"
                    ) from None
                if not 0 <= t < 2**64:
                    raise StreamFormatError(
                        f"malformed line {lineno}: timestamp outside [0, 2^64)"
                    )
                src, dst = parts[1], parts[2]
            if last_time is not None and t < last_time:
                raise StreamFormatError(f"timestamp decreases at line {lineno}")
            last_time = t
            yield RawEvent(t, src, dst)
    except (EOFError, UnicodeDecodeError, zlib.error, gzip.BadGzipFile) as exc:
        raise StreamFormatError(f"unreadable input after line {lineno}: {exc}") from None


def normalize(events: Iterable[RawEvent]) -> ArrivalStream:
    """Deduplicate links, strip loops, and index nodes by first appearance.

    A link (a, b) survives only on its first observation in either direction.
    A loop (a, a) is dropped as a link but still discovers node a. Every
    distinct endpoint token becomes the next free index the first time it is
    seen in any event.
    """
    index: dict[str, int] = {}
    seen: set[int] = set()  # packed unordered pairs of surviving links
    us: list[int] = []
    vs: list[int] = []
    ts: list[int] = []
    prefix: list[int] = []

    for ev in events:
        count_before = len(index)
        iu = index.setdefault(ev.src, count_before)
        if ev.src == ev.dst:
            continue
        iv = index.setdefault(ev.dst, len(index))
        if iu <= iv:
            key = (iu << 31) | iv
        else:
            key = (iv << 31) | iu
        if key in seen:
            continue
        seen.add(key)
        if us:
            prefix.append(count_before)
        us.append(iu)
        vs.append(iv)
        ts.append(ev.time)

    final_n = len(index)
    if final_n > _MAX_NODE:
        raise ValueError(f"too many nodes for 32-bit indices: {final_n}")
    if us:
        prefix.append(final_n)
    return ArrivalStream(
        u=np.asarray(us, dtype=np.int32),
        v=np.asarray(vs, dtype=np.int32),
        time=np.asarray(ts, dtype=np.uint64),
        node_count_prefix=np.asarray(prefix, dtype=np.int64),
        final_n=final_n,
        final_m=len(us),
    )


def leading_discoveries(stream: ArrivalStream) -> int:
    """Nodes discovered before the first link.

    The first link can introduce at most its own endpoints, and only as
    consecutive indices with the source lower; every other index below its
    top endpoint must have been discovered beforehand. Requires final_m >= 1.
    """
    u0 = int(stream.u[0])
    v0 = int(stream.v[0])
    hi0 = u0 if u0 > v0 else v0
    return hi0 - 1 if v0 == u0 + 1 else hi0


def checkpoint_node_count(stream: ArrivalStream, position: int, target_n: int) -> int:
    """Distinct nodes actually present at a checkpoint boundary.

    ``position`` is the replay position returned by :func:`replay_to` for
    ``target_n``. If the boundary link revealed two nodes at once the count
    overshoots the target by one; if the target was reached by a node-only
    discovery between links it is met exactly.
    """
    if position == 0:
        return target_n
    prefix = stream.node_count_prefix
    before = int(prefix[position - 2]) if position >= 2 else 0
    at_link = max(before, int(stream.u[position - 1]) + 1, int(stream.v[position - 1]) + 1)
    return max(at_link, target_n)


def replay_to(stream: ArrivalStream, cursor: int, target_n: int) -> int:
    """Smallest position whose consumed prefix has at least ``target_n`` nodes.

    Positions count link events; ``cursor`` is the already-consumed position
    and the result never moves backwards. Raises ValueError if the stream
    never reaches ``target_n`` nodes.
    """
    if target_n > stream.final_n:
        raise ValueError(f"stream has {stream.final_n} nodes, cannot reach {target_n}")
    if target_n <= 0:
        return cursor
    if stream.final_m == 0:
        return cursor
    if target_n <= leading_discoveries(stream):
        return cursor  # reached by node-only discoveries before any link
    pos = int(np.searchsorted(stream.node_count_prefix, target_n, side="left")) + 1
    return max(pos, cursor)


@dataclass(frozen=True)
class CheckpointSchedule:
    """Target node counts for a replay, deduplicated and ending at final_n."""

    sizes: tuple[int, ...]
    nominal_count: int
    final_n: int


def checkpoint_sizes(final_n: int, nominal_count: int = 100) -> CheckpointSchedule:
    """Evenly spaced target sizes i*final_n/nominal_count, rounded half up.

    Duplicates collapse and zero-size targets drop, so tiny streams get fewer
    checkpoints than nominal. The last target is always final_n.
    """
    if final_n < 1:
        raise ValueError("final_n must be at least 1")
    if nominal_count < 1:
        raise ValueError("nominal_count must be at least 1")
    sizes = []
    for i in range(1, nominal_count + 1):
        s = (2 * i * final_n + nominal_count) // (2 * nominal_count)
        if s > 0 and (not sizes or s != sizes[-1]):
            sizes.append(s)
    if sizes[-1] != final_n:  # guard; the i = nominal term lands exactly
        sizes.append(final_n)
    return CheckpointSchedule(sizes=tuple(sizes), nominal_count=nominal_count, final_n=final_n)


def cache_key(path: str, options: FormatOptions) -> tuple[int, int, int]:
    """What a sidecar must have been written for to stand in for a fresh
    parse of ``path``: the format switch, the input's size in bytes and its
    modification time in nanoseconds."""
    st = os.stat(path)
    return int(options.no_time), st.st_size, st.st_mtime_ns


def save_cache(stream: ArrivalStream, path: str, key: tuple[int, int, int]) -> None:
    """Write the binary sidecar for a normalized stream parsed under ``key``.

    Layout: the 8-byte magic, ``final_n`` and ``final_m`` as little-endian
    u64, the three i64 fields of the key, then the stream's own columns one
    after another: ``u`` and ``v`` as i4, ``time`` as u8 and
    ``node_count_prefix`` as i8, ``final_m`` entries each (24 bytes per
    link). Written to a unique temporary file in the same directory and
    renamed into place, so concurrent writers never share a partial file.
    """
    columns = (stream.u, stream.v, stream.time, stream.node_count_prefix)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=os.path.dirname(path) or "."
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(CACHE_MAGIC)
            f.write(struct.pack(_CACHE_HEADER, stream.final_n, stream.final_m, *key))
            for column, dtype in zip(columns, _CACHE_COLUMNS):
                f.write(column.astype(dtype, copy=False).tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_cache(path: str, key: tuple[int, int, int]) -> ArrivalStream:
    """Load a sidecar written by :func:`save_cache` under the same ``key``.

    The columns are returned as read-only views of the file's bytes; nothing
    is rebuilt. Since they are trusted as stored, the invariants of
    :class:`ArrivalStream` are checked instead. Raises ValueError on another
    magic, a key mismatch, a payload of the wrong size or a broken invariant.
    """
    with open(path, "rb") as f:
        if f.read(len(CACHE_MAGIC)) != CACHE_MAGIC:
            raise ValueError(f"not a stream cache: {path}")
        header = f.read(struct.calcsize(_CACHE_HEADER))
        if len(header) != struct.calcsize(_CACHE_HEADER):
            raise ValueError(f"truncated cache header: {path}")
        final_n, final_m, *written_for = struct.unpack(_CACHE_HEADER, header)
        if tuple(written_for) != tuple(key):
            raise ValueError(f"cache written for another input or format: {path}")
        payload = f.read()
    if len(payload) != final_m * sum(dtype.itemsize for dtype in _CACHE_COLUMNS):
        raise ValueError(f"truncated cache payload: {path}")
    columns = []
    offset = 0
    for dtype in _CACHE_COLUMNS:
        columns.append(np.frombuffer(payload, dtype, final_m, offset))
        offset += final_m * dtype.itemsize
    u, v, time, prefix = columns

    if np.any(time[1:] < time[:-1]):
        raise ValueError(f"cache times out of order: {path}")
    if np.any(u == v) or np.any(np.minimum(u, v) < 0):
        raise ValueError(f"cache link is a loop or has a negative endpoint: {path}")
    if np.any(prefix[1:] < prefix[:-1]):
        raise ValueError(f"cache node counts decrease: {path}")
    if np.any(prefix <= np.maximum(u, v)):
        raise ValueError(f"cache node count below a link's endpoint: {path}")
    if final_n > _MAX_NODE or (final_m and prefix[-1] != final_n):
        raise ValueError(f"cache node count mismatch: {path}")
    return ArrivalStream(u, v, time, prefix, final_n=final_n, final_m=final_m)
