"""Measurement-stream ingestion, normalization and checkpoint scheduling.

Raw traces arrive as text lines ``<time> <src> <dst>`` sorted by time.
Normalization keeps only the first discovery of each undirected link, turns
loops into bare node discoveries, and maps opaque endpoint tokens to dense
integer indices in order of first appearance. The result is an
:class:`ArrivalStream`, the canonical replay input for everything downstream.

A checkpoint is the graph observed "as soon as the k-th node was discovered".
Because a single link can reveal two nodes at once, a checkpoint may overshoot
its target by one; the actual count is recorded. ``checkpoint_sizes``
produces the standard schedule of target counts (percent-style steps of the
final size), and ``checkpoint_plan`` places every target of a schedule in the
stream at once: the link position and node count of each checkpoint kept.

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
from typing import Iterable, Iterator, Sequence

import numpy as np

CACHE_MAGIC = b"NRSTRM04"

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
    event. ``node_count_prefix`` has one entry more: entry 0 is the number of
    distinct nodes discovered before the first link event, and entry i+1 the
    number discovered once event i and any node-only discoveries that
    precede event i+1 (or the end of the trace) are consumed. It is
    non-decreasing and ends at ``final_n``. Nodes discovered only by loops
    never appear as endpoints but are counted.
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
    """Open a trace for reading, transparently decompressing ``.gz``.

    Bytes that are not UTF-8 decode to lone surrogates instead of failing
    mid-chunk, so that :func:`parse_event_stream` can name their line.
    """
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors="surrogateescape")
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def parse_event_stream(
    reader: Iterable[str], options: FormatOptions = FormatOptions()
) -> Iterator[RawEvent]:
    """Parse trace lines into events, validating order as we go.

    Blank lines and lines starting with ``#`` are skipped. Malformed lines
    and timestamp regressions raise StreamFormatError with the 1-based line
    number. Timestamps must be integers in [0, 2^64), the range the
    normalized stream and its cache store. A line holding bytes that are
    not UTF-8 (read by :func:`open_event_file` as lone surrogates) raises
    StreamFormatError naming that line. Input that cannot be read on
    (truncated or corrupt gzip, or a strict decoder's failure) raises
    StreamFormatError naming the last line read whole.
    """
    last_time = None
    synthetic = 0
    lineno = 0
    try:
        for lineno, line in enumerate(reader, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise StreamFormatError(f"line {lineno} is not valid utf-8") from None
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
        prefix.append(count_before)
        us.append(iu)
        vs.append(iv)
        ts.append(ev.time)

    final_n = len(index)
    if final_n > _MAX_NODE:
        raise ValueError(f"too many nodes for 32-bit indices: {final_n}")
    prefix.append(final_n)
    return ArrivalStream(
        u=np.asarray(us, dtype=np.int32),
        v=np.asarray(vs, dtype=np.int32),
        time=np.asarray(ts, dtype=np.uint64),
        node_count_prefix=np.asarray(prefix, dtype=np.int64),
        final_n=final_n,
        final_m=len(us),
    )


def checkpoint_plan(
    stream: ArrivalStream, sizes: Sequence[int]
) -> list[tuple[int, int, int, int]]:
    """Where each target node count of a schedule lands in the stream.

    Returns ``(schedule index, target, position, n)`` per kept checkpoint:
    ``position`` link events consumed, ``n`` nodes present. A target lands
    just after the node that reaches it is discovered. If that node came
    with a link, the link is consumed and ``n`` may overshoot the target by
    one, when the link revealed two nodes at once; if it came from a loop,
    ``n`` meets the target exactly. Targets reached before the first link
    land at position 0 with ``n`` equal to the target. The last target takes
    the whole stream with ``final_n``. A target landing where the previous
    one did (its node was revealed by the previous target's overshoot) is
    dropped. Raises ValueError if a target exceeds ``final_n``.
    """
    if max(sizes) > stream.final_n:
        raise ValueError(f"stream has {stream.final_n} nodes, cannot reach {max(sizes)}")
    positions = np.searchsorted(stream.node_count_prefix, sizes, side="left")
    plan: list[tuple[int, int, int, int]] = []
    for index, (target, position) in enumerate(zip(sizes, positions.tolist())):
        if index == len(sizes) - 1:
            position, n = stream.n_events, stream.final_n
        elif position == 0:
            n = target
        else:
            # Nodes before the boundary link number fewer than the target.
            n = max(target, int(stream.u[position - 1]) + 1, int(stream.v[position - 1]) + 1)
        if not plan or plan[-1][2:] != (position, n):
            plan.append((index, target, position, n))
    return plan


def checkpoint_sizes(final_n: int, nominal_count: int = 100) -> tuple[int, ...]:
    """Evenly spaced target sizes i*final_n/count, rounded half up, for
    ``count = min(nominal_count, final_n)``.

    Consecutive targets differ by final_n/count >= 1 before rounding, so
    they strictly increase; a stream of fewer nodes than nominal gets one
    target per node. The last target is final_n.
    """
    if final_n < 1:
        raise ValueError("final_n must be at least 1")
    if nominal_count < 1:
        raise ValueError("nominal_count must be at least 1")
    count = min(nominal_count, final_n)
    return tuple((2 * i * final_n + count) // (2 * count) for i in range(1, count + 1))


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
    ``node_count_prefix`` as i8, ``final_m`` entries each and one more for
    ``node_count_prefix`` (24 bytes per link plus 8). Written to a unique
    temporary file in the same directory and renamed into place, so
    concurrent writers never share a partial file.
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
    lengths = (final_m, final_m, final_m, final_m + 1)
    if len(payload) != sum(k * dtype.itemsize for k, dtype in zip(lengths, _CACHE_COLUMNS)):
        raise ValueError(f"truncated cache payload: {path}")
    columns = []
    offset = 0
    for k, dtype in zip(lengths, _CACHE_COLUMNS):
        columns.append(np.frombuffer(payload, dtype, k, offset))
        offset += k * dtype.itemsize
    u, v, time, prefix = columns

    if np.any(time[1:] < time[:-1]):
        raise ValueError(f"cache times out of order: {path}")
    if np.any(u == v) or np.any(np.minimum(u, v) < 0):
        raise ValueError(f"cache link is a loop or has a negative endpoint: {path}")
    if prefix[0] < 0 or np.any(prefix[1:] < prefix[:-1]):
        raise ValueError(f"cache node counts decrease: {path}")
    if np.any(prefix[1:] <= np.maximum(u, v)):
        raise ValueError(f"cache node count below a link's endpoint: {path}")
    if final_n > _MAX_NODE or prefix[-1] != final_n:
        raise ValueError(f"cache node count mismatch: {path}")
    return ArrivalStream(u, v, time, prefix, final_n=final_n, final_m=final_m)
