"""Measurement-stream ingestion, normalization and checkpoint scheduling.

Raw traces arrive as text lines ``<time> <src> <dst>`` sorted by time, or
as ``<src> <dst>`` lines when :func:`normalize` is called with ``no_time``,
the one layout switch, which numbers them 0, 1, 2, ... as their times.
:func:`normalize` validates a trace and normalizes it: it keeps only the
first discovery of each undirected link, turns loops into bare node
discoveries, and maps opaque endpoint tokens to dense integer indices in
order of first appearance. The result is an :class:`ArrivalStream`, the
canonical replay input for everything downstream.

The trace is read in blocks of whole lines (``_BLOCK_BYTES``, cut after the
last line end), each parsed before the next is read. The fields of a block
and each line's field count come from array operations over its code
points. Its times come from the same code points by array arithmetic when
every stamp is 1 to 19 ASCII digits, and from ``int`` otherwise. Its node
ids come one of three ways, which give the same ids:

- the decimal path, for an ASCII block whose endpoint tokens are all
  canonical decimals (no leading zero unless the token is ``0``) below
  ``_DECIMAL_CAP``: the tokens' values index ``id_of``, an ``int32`` array
  of node ids, without a split or a dictionary lookup per token;
- the id cache, for any other ASCII block whose times were read by
  arithmetic and whose endpoint tokens are each at most ``_PACKED_BYTES``
  (15) bytes, every IPv4 dotted quad among them: each token is packed into
  two 64-bit words (its bytes, zero-padded, and its length) by one gather,
  and the words are looked up by a multiplicative hash in a direct-mapped
  table of packed tokens and their ids. A hit needs both words equal, so a
  collision costs a lookup, never a wrong id;
- the general path, for every other block: the block is split once and
  each token looked up in one dictionary kept across blocks.

A new token takes the next id, in order of first appearance, whichever
path meets it first. While every block so far has been decimal, the
dictionary stays empty: the decimal path numbers new values from the node
count, and ``id_of`` alone holds their ids. The first block of another kind
fills the dictionary from ``id_of`` once. From then on the dictionary holds
every token and alone gives out ids, and ``id_of`` and the id cache cache
them: the decimal path looks a token up only the first time it meets it,
and the id cache once per block for each token missing from its slot. New
links are the distinct packed pair keys of a block, found by one unstable
sort (``_distinct``). Only the keys whose endpoints were both known before
the block are searched for among the keys kept so far, which are held as
sorted runs merged by size, like a binary counter, so no block copies them
all. Beyond the stream's own arrays (filled in place in buffers that grow
by a quarter at a time and are cut to size), working memory is the block,
the dictionary (one entry per node, none on a trace of decimals alone),
``id_of`` (4 bytes per value up to at most twice the largest decimal token
seen, below the cap, so at most 64 MiB), the id cache (20 bytes per slot:
1024 slots, grown to two to four per node as blocks take it) and 8 bytes
per kept link, plus a merge buffer of up to half of them.

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
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, count
from operator import itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CACHE_MAGIC = b"NRSTRM04"

_CACHE_HEADER = "<2Q3q"  # final_n, final_m, then the cache_key fields
# The ArrivalStream columns u, v, time, node_count_prefix, in the cache one
# after another.
_COLUMN_DTYPES = (np.dtype("<i4"), np.dtype("<i4"), np.dtype("<u8"), np.dtype("<i8"))

_MAX_NODE = 2**31 - 1
_MAX_LINKS = 2**31 - 1  # a link's index is an int32 arrival in graph.arrival_csr

_BLOCK_BYTES = 1 << 18  # read at a time; a block is cut after its last whole line
_STAMP_DIGITS = 19  # stamps this long or shorter are read by array arithmetic: all < 2^64
# Endpoint tokens that are canonical decimals below the cap are looked up in
# an array indexed by value, not in the token dictionary.
_DECIMAL_CAP = 1 << 24
_CAP_DIGITS = len(str(_DECIMAL_CAP - 1))
# Endpoint tokens this long or shorter (every IPv4 dotted quad) are packed
# into two 64-bit words and looked up in the id cache, not in the dictionary.
_PACKED_BYTES = 15
# Per token length: the bits of each packed word that hold its bytes, and
# the length itself in the last byte.
_LOW_BITS = np.array([(1 << 8 * min(k, 8)) - 1 for k in range(16)], np.uint64)
_HIGH_BITS = np.array([(1 << 8 * max(k - 8, 0)) - 1 for k in range(16)], np.uint64)
_LENGTH_BYTE = np.array([k << 56 for k in range(16)], np.uint64)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd, about 2^64 / golden ratio
# str.isspace of each code point up to U+3000, the last that is whitespace;
# every later code point reads the final False entry.
_WHITESPACE = np.array([chr(c).isspace() for c in range(0x3001)] + [False])


class StreamFormatError(ValueError):
    """An input line violates the stream format."""


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


def normalize(path: str, no_time: bool = False, work: Optional[dict] = None) -> ArrivalStream:
    """Read, validate and normalize the trace at ``path`` (gzipped if it
    ends in ``.gz``), one block of whole lines at a time.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``. Fields are separated by
    runs of the characters ``str.isspace`` accepts. Blank lines and lines
    whose first field starts with ``#`` are skipped. Every other line holds
    ``<time> <src> <dst>`` (``<src> <dst>`` when ``no_time`` is true, and
    the times are then 0, 1, 2, ... over those lines), with ``int(time)``
    in [0, 2^64) and never below the previous line's time. The first offending
    line in file order raises StreamFormatError with its 1-based number,
    whatever its fault: the wrong number of fields, a bad, out-of-range or
    decreasing timestamp, or bytes that are not UTF-8. Input that cannot be
    read on (truncated or corrupt gzip) raises StreamFormatError naming the
    last line read whole, once the lines before it have been checked. More
    than 2^31 - 1 nodes or links raise ValueError.

    A link survives only on its first observation in either direction. A
    loop (a, a) is dropped as a link but still discovers node a. Every
    distinct endpoint token becomes the next free index the first time it
    is seen, a line's source before its destination.

    If ``work`` is given, it receives how the load ran: ``blocks`` parsed,
    ``decimal_blocks`` and ``id_cache_blocks`` among them (those whose node
    ids came from ``id_of`` or from the id cache; see the module docstring),
    and ``token_lookups``, the lookups in the token dictionary on every path
    (none on a trace of decimals alone, which never fills the dictionary).
    """
    blocks = _BlockNormalizer(no_time)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as f:
        for chunk, fault in _line_chunks(f):
            blocks.feed(chunk)
            if fault is not None:
                raise StreamFormatError(f"unreadable input after line {blocks.lines}: {fault}")
    if work is not None:
        work.update(
            blocks=blocks.blocks,
            decimal_blocks=blocks.decimal_blocks,
            id_cache_blocks=blocks.id_cache_blocks,
            token_lookups=blocks.token_lookups,
        )
    return blocks.stream()


def _read_block(f, buf: bytearray) -> Optional[Exception]:
    """Append the next ``_BLOCK_BYTES`` bytes of ``f`` (fewer at the end) to
    ``buf``, and return the error that ended the read early, if any. Reading
    piece by piece keeps what came before a fault, so its whole lines are
    still checked."""
    end = len(buf) + _BLOCK_BYTES
    try:
        while len(buf) < end:
            piece = f.read1(end - len(buf))
            if not piece:
                break
            buf += piece
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        return exc
    return None


def _line_chunks(f) -> Iterator[tuple[bytearray, Optional[Exception]]]:
    """``f`` as chunks of whole lines, one per block read, each with the
    error that ended the read, if any (the last chunk then). A last line
    without a line end gets one."""
    buf = bytearray()  # what was read after the last line end handed on
    while True:
        # A line can end only in the new bytes or at a "\r" just before
        # them, so a line longer than a block is not searched again.
        start = max(len(buf) - 1, 0)
        carried = len(buf)
        fault = _read_block(f, buf)
        if len(buf) == carried and fault is None:
            break
        # Cut after the last "\n", or after a later "\r" that the next
        # byte shows is not the start of a "\r\n".
        cut = max(buf.rfind(b"\n", start), buf.rfind(b"\r", start, len(buf) - 1)) + 1
        chunk = buf[:cut]
        del buf[:cut]
        yield chunk, fault
        if fault is not None:
            return
    if buf:
        yield buf + b"\n", None


class _BlockNormalizer:
    """What :func:`normalize` carries from one block to the next."""

    def __init__(self, no_time: bool):
        self.no_time = no_time
        self.lines = 0  # lines consumed whole
        self.rows = 0  # data lines among them
        self.blocks = 0  # non-empty chunks fed
        self.decimal_blocks = 0  # those whose node ids came from id_of
        self.id_cache_blocks = 0  # those whose node ids came from the id cache
        self.token_lookups = 0  # lookups in the index, on every path
        self.nodes = 0  # distinct tokens so far: the next id
        self.last_time = np.zeros(1, np.uint64)
        # token -> node id, empty until the first block that is not
        # decimal fills it (see _fill_index)
        self.index: dict[str, int] = {}
        # id_of[value] is the node id of the decimal token str(value), or -1
        # while the decimal path has not met it, for canonical decimal
        # tokens below _DECIMAL_CAP, grown by doubling: the only record of
        # those ids while the index is empty, a cache of it once filled.
        self.id_of = np.full(0, -1, np.int32)
        # The id cache, a cache of the index for tokens of at most
        # _PACKED_BYTES bytes: a direct-mapped table whose slot i holds one
        # token, packed as the two words cache_words[:, i] (see
        # _packed_tokens; zero while the slot is empty, which no token packs
        # to), and its node id cache_ids[i]. A token whose slot holds
        # another is looked up in the index and may take the slot. The
        # table grows by doubling to keep two to four slots per node.
        self.cache_words = np.zeros((2, 1 << 10), np.uint64)
        self.cache_ids = np.zeros(1 << 10, np.int32)
        # The packed keys of the links kept so far, as sorted runs one after
        # another in one buffer: run i is kept[runs[i] : runs[i + 1]]. Each
        # run is more than twice the size of the next, so there are at most
        # log2(m) + 1 of them.
        self.kept = np.empty(1 << 12, np.int64)
        self.runs = [0]
        # The kept events' columns, grown in place by a quarter and cut to
        # size at the end: per-block pieces joined at the end, or copies,
        # leave freed holes that stay resident in the heap, and doubling
        # leaves up to half of each column spare.
        self.columns = [np.empty(1 << 12, dtype) for dtype in _COLUMN_DTYPES]
        self.events = 0

    def feed(self, chunk: bytes | bytearray) -> None:
        """Take whole lines: ``chunk`` is empty or ends with a line end."""
        if not chunk:
            return
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        text = None  # an ASCII chunk is decoded only for the general path
        if chunk.isascii():
            code = np.frombuffer(chunk, np.uint8)
        else:
            try:
                text = chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                self.feed(chunk[: chunk.rfind(b"\n", 0, exc.start) + 1])
                raise StreamFormatError(f"line {self.lines + 1} is not valid utf-8") from None
            code = np.frombuffer(text.encode("utf-32-le"), "<u4")
        self.blocks += 1

        # Find the fields and count each line's from the code points, without
        # splitting line by line: field i is code[starts[i] : stops[i]].
        space = _whitespace(code)
        edges = np.flatnonzero(space[1:] != space[:-1]) + 1
        if not space[0]:
            edges = np.concatenate(([0], edges))
        starts, stops = edges[0::2], edges[1::2]  # the chunk ends with a space
        upto = np.searchsorted(starts, np.flatnonzero(code == ord("\n")))
        first = np.concatenate(([0], upto[:-1]))  # each line's first field
        fields = upto - first
        data = fields > 0
        if b"#" in chunk:
            data[data] = code[starts[first[data]]] != ord("#")

        # Only the lines before the first with the wrong field count are
        # checked further; an error among them comes first in the file.
        width = 2 if self.no_time else 3
        wrong = np.flatnonzero(data & (fields != width))
        stop = int(wrong[0]) if wrong.size else upto.size
        rows = np.flatnonzero(data[:stop])
        error = None
        if stop < upto.size:
            shape = "<src> <dst>" if self.no_time else "<time> <src> <dst>"
            error = f"malformed line {self.lines + stop + 1}: expected '{shape}'"
        head = first[rows]  # each data line's first field
        if self.no_time:
            times = np.arange(self.rows, self.rows + rows.size, dtype=np.uint64)
        else:
            times = _decimal_values(code, starts[head], stops[head], _STAMP_DIGITS)
        values = words = None  # the endpoint tokens' values or packed words
        if text is None and times is not None:
            ends = (head[:, None] + np.arange(width - 2, width)).ravel()
            values = _decimal_tokens(code, starts[ends], stops[ends])
            if values is None:
                words = _packed_tokens(code, starts[ends], stops[ends])
        if values is None and words is None:
            if text is None:
                text = chunk.decode("ascii")
            tokens = text.split()
            if stop < upto.size:
                del tokens[first[stop] :]
            if len(tokens) != rows.size * width:  # drop the comment lines' fields
                tokens = list(compress(tokens, np.repeat(data[:stop], fields[:stop]).tolist()))
            if not self.no_time:
                if times is None:
                    times, fault = _parse_times(tokens[0::3])
                    if fault is not None:
                        error = f"malformed line {self.lines + rows[times.size] + 1}: {fault}"
                del tokens[0::3]
        if not self.no_time:
            down = np.flatnonzero(times < np.concatenate((self.last_time, times[:-1])))
            if down.size:
                error = f"timestamp decreases at line {self.lines + rows[down[0]] + 1}"
        if error is not None:
            raise StreamFormatError(error)
        self.lines += upto.size
        self.rows += rows.size
        if times.size:
            self.last_time = times[-1:]
        if values is not None:
            ids = self._decimal_ids(values)
            self.decimal_blocks += 1
        else:
            self._fill_index()
            if words is not None:
                ids = self._cached_ids(words)
                self.id_cache_blocks += 1
            else:
                ids = self._token_ids(tokens)
        self._add_events(ids, times)

    def _token_ids(self, tokens: list[str]) -> np.ndarray:
        """The node ids of ``tokens``, new tokens numbered in order of first
        appearance."""
        if not tokens:
            return np.zeros(0, np.int64)
        self.token_lookups += len(tokens)
        # A token missing from the index gets the next id on lookup. Sources
        # and destinations come in pairs, so itemgetter returns a tuple.
        return np.fromiter(itemgetter(*tokens)(self.index), np.int64, len(tokens))

    def _decimal_ids(self, values: np.ndarray) -> np.ndarray:
        """The node ids of the decimal tokens of ``values``. Values missing
        from ``id_of`` take the next ids in order of first appearance: from
        the node count while the index is empty (every node so far is a
        decimal in ``id_of``), else by lookup in the index. Then cached."""
        self._grow_id_of(int(values.max(initial=-1)))
        ids = self.id_of[values]
        new = np.flatnonzero(ids < 0)
        if new.size:
            fresh, at = _distinct(values[new])
            fresh = fresh[np.argsort(at)]
            if self.index:
                self.token_lookups += fresh.size
                self.id_of[fresh] = np.fromiter(
                    map(self.index.__getitem__, map(str, fresh.tolist())), np.int32, fresh.size
                )
            else:
                self.id_of[fresh] = np.arange(self.nodes, self.nodes + fresh.size)
            ids[new] = self.id_of[values[new]]
        return ids.astype(np.int64)

    def _fill_index(self) -> None:
        """Put every decimal token that ``id_of`` numbered into the empty
        index, before a block first needs the index, so the index knows
        every node and gives new tokens the next ids."""
        if self.index:
            return
        values = np.flatnonzero(self.id_of >= 0)
        self.index = defaultdict(
            count(self.nodes).__next__,
            zip(map(str, values.tolist()), self.id_of[values].tolist()),
        )

    def _cached_ids(self, words: np.ndarray) -> np.ndarray:
        """The node ids of the tokens packed in the rows of ``words``. Tokens
        missing from the id cache are looked up in the index, each once (see
        _first_rows), in order of first appearance, so a new token takes the
        next id there, and cached."""
        self._grow_id_cache()
        slots = _slots(words, self.cache_ids.size)
        low, high = self.cache_words
        ids = self.cache_ids[slots]
        miss = np.flatnonzero((low[slots] != words[:, 0]) | (high[slots] != words[:, 1]))
        if miss.size:
            first, group = _first_rows(words[miss])
            fresh = miss[first]
            self.token_lookups += fresh.size
            found = np.fromiter(
                map(self.index.__getitem__, _unpacked(words[fresh])), np.int32, fresh.size
            )
            ids[miss] = found[group]
            # One token per slot: of those meeting in one, the first.
            slot, put = _distinct(slots[fresh])
            low[slot], high[slot] = words[fresh[put]].T
            self.cache_ids[slot] = found[put]
        return ids.astype(np.int64)

    def _grow_id_cache(self) -> None:
        """Double the id cache until it has two slots per node. Each
        cached token moves to its slot in the larger table; a token's new
        slot starts with the bits of its old one, so no two meet."""
        size = self.cache_ids.size
        if size >= 2 * self.nodes:
            return
        while size < 2 * self.nodes:
            size *= 2
        held = np.flatnonzero(self.cache_words[1])  # a token's length byte is never 0
        words, ids = self.cache_words[:, held].T, self.cache_ids[held]
        self.cache_words = np.zeros((2, size), np.uint64)
        self.cache_ids = np.zeros(size, np.int32)
        slots = _slots(words, size)
        self.cache_words[:, slots] = words.T
        self.cache_ids[slots] = ids

    def _grow_id_of(self, largest: int) -> None:
        size = self.id_of.size
        if largest >= size:
            self.id_of.resize(min(_DECIMAL_CAP, max(largest + 1, 2 * size)), refcheck=False)
            self.id_of[size:] = -1

    def _add_events(self, ids: np.ndarray, times: np.ndarray) -> None:
        """Normalize events given as alternating source and destination node
        ids, with their times, and count the nodes they discover."""
        # Ids follow first appearance, so the nodes seen before an event
        # number one more than the largest id before it.
        before = self.nodes
        largest = np.maximum.accumulate(np.concatenate(([before - 1], ids)))
        self.nodes = int(largest[-1]) + 1
        u, v = ids[0::2], ids[1::2]
        seen = largest[0:-1:2] + 1
        links = np.flatnonzero(u != v)
        lo, hi = np.minimum(u[links], v[links]), np.maximum(u[links], v[links])
        keys, at_first = _distinct(lo << 31 | hi)
        # A kept link joins two nodes known before this block, so only such
        # keys are searched for, run by run, until found.
        new = (keys & _MAX_NODE) >= before
        unsure = np.flatnonzero(~new)
        for start, end in zip(self.runs, self.runs[1:]):
            run = self.kept[start:end]
            probe = keys[unsure]
            unsure = unsure[run.take(np.searchsorted(run, probe), mode="clip") != probe]
        new[unsure] = True
        self._push_run(keys[new])
        keep = links[np.sort(at_first[new])]
        done, self.events = self.events, self.events + keep.size
        if self.events > self.columns[0].size:
            size = max(self.events, self.columns[0].size * 5 // 4)
            for column in self.columns:
                column.resize(size, refcheck=False)  # no view of a column is ever kept
        for column, values in zip(self.columns, (u, v, times, seen)):
            column[done : self.events] = values[keep]

    def _push_run(self, keys: np.ndarray) -> None:
        """Append the sorted ``keys`` as the last run, then merge the last two
        runs while the earlier is at most twice the later."""
        if not keys.size:
            return
        runs = self.runs
        end = runs[-1] + keys.size
        if end > self.kept.size:
            self.kept.resize(max(end, self.kept.size * 5 // 4), refcheck=False)
        self.kept[runs[-1] : end] = keys
        runs.append(end)
        while len(runs) > 2 and runs[-2] - runs[-3] <= 2 * (runs[-1] - runs[-2]):
            del runs[-2]
            # Two sorted runs side by side: timsort merges them in one pass,
            # with a buffer the size of the smaller.
            self.kept[runs[-2] : runs[-1]].sort(kind="stable")

    def stream(self) -> ArrivalStream:
        final_n = self.nodes
        if final_n > _MAX_NODE:
            raise ValueError(f"too many nodes for 32-bit indices: {final_n}")
        m = self.events
        if m > _MAX_LINKS:
            raise ValueError(f"too many links for 32-bit arrivals: {m}")
        for column, size in zip(self.columns, (m, m, m, m + 1)):
            column.resize(size, refcheck=False)
        u, v, time, prefix = self.columns
        prefix[-1] = final_n
        return ArrivalStream(u, v, time, prefix, final_n=final_n, final_m=m)


def _whitespace(code: np.ndarray) -> np.ndarray:
    """``str.isspace`` of each code point in the unsigned array ``code``."""
    space = (code - 9 <= 4) | (code - 28 <= 4)  # "\t\n\v\f\r", "\x1c" to " "
    high = np.flatnonzero(code > 127)
    space[high] = _WHITESPACE[np.minimum(code[high].astype(np.intp), _WHITESPACE.size - 1)]
    return space


def _decimal_values(
    code: np.ndarray, starts: np.ndarray, stops: np.ndarray, most: int
) -> Optional[np.ndarray]:
    """The values, as uint64, of the fields ``code[starts[i] : stops[i]]`` of
    the unsigned code points ``code``, or None unless each field is 1 to
    ``most`` (at most 19) ASCII digits."""
    lengths = stops - starts
    width = int(lengths.max(initial=0))
    if width > most:
        return None
    short = lengths.min(initial=width) < width  # some field has fewer digits than the widest
    values = np.zeros(lengths.size, np.uint64)
    for j in range(width):  # each field's digit worth 10^j, the (j + 1)-th from its end
        digits = code[stops - (j + 1)] - ord("0")  # a code point below "0" wraps around
        if short:
            digits[lengths <= j] = 0
        if digits.max(initial=0) > 9:
            return None
        values += digits * np.uint64(10**j)
    return values


def _decimal_tokens(
    code: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> Optional[np.ndarray]:
    """The values of the endpoint fields ``code[starts[i] : stops[i]]`` when
    each is a canonical decimal (no leading zero unless it is "0") below
    ``_DECIMAL_CAP``, else None."""
    lengths = stops - starts
    if np.any((code[starts] == ord("0")) & (lengths > 1)):
        return None
    values = _decimal_values(code, starts, stops, _CAP_DIGITS)
    if values is None or np.any(values >= _DECIMAL_CAP):
        return None
    return values.astype(np.intp)


def _packed_tokens(
    code: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> Optional[np.ndarray]:
    """The fields ``code[starts[i] : stops[i]]`` of the ``uint8`` array
    ``code`` as rows of two ``uint64`` words: the field's bytes, zero-padded,
    and its length in the last byte. None if a field is longer than
    ``_PACKED_BYTES``. Two fields pack alike only if they are equal."""
    lengths = stops - starts
    if lengths.max(initial=0) > _PACKED_BYTES:
        return None
    padded = np.concatenate((code, np.zeros(16, np.uint8)))
    words = sliding_window_view(padded, 16)[starts].view("<u8")
    words[:, 0] &= _LOW_BITS[lengths]
    words[:, 1] &= _HIGH_BITS[lengths]
    words[:, 1] |= _LENGTH_BYTE[lengths]
    return words


def _unpacked(words: np.ndarray) -> list[str]:
    """The ASCII tokens that :func:`_packed_tokens` packed into the rows of
    ``words``. Their padding and length bytes become spaces, which no token
    holds, so one split gives them all."""
    raw = words.view(np.uint8)
    raw = np.where(np.arange(16, dtype=np.uint8) < raw[:, 15:], raw, np.uint8(ord(" ")))
    return raw.tobytes().decode("ascii").split()


def _mixed(words: np.ndarray) -> np.ndarray:
    """A multiplicative hash of both words of each packed token ``words``."""
    mixed = words[:, 0] * _HASH_MULTIPLIER
    mixed ^= words[:, 1]
    mixed *= _HASH_MULTIPLIER
    return mixed


def _slots(words: np.ndarray, size: int) -> np.ndarray:
    """The id cache slots, below the power of two ``size``, of the packed
    tokens ``words``: the top bits of their hash."""
    return (_mixed(words) >> np.uint64(65 - size.bit_length())).astype(np.intp)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in increasing order and the position of each
    one's first occurrence, as ``np.unique`` gives them with
    ``return_index``, from one unstable sort: the first occurrence of a key
    is the least position in its run of the sorted keys."""
    order = np.argsort(keys)
    ordered = keys[order]
    head = np.ones(order.size, bool)
    head[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(head)
    return ordered[starts], np.minimum.reduceat(order, starts)


def _first_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal rows of a packed token array ``rows``: the first
    position of each group, in increasing order, and each row's group.

    Rows are sorted by hash, so equal rows sort together and each distinct
    row makes one group. Only where distinct rows hash alike can they
    interleave and a row make more than one group; the first of them still
    holds its first position, so a row's first group comes where it first
    appears."""
    order = np.argsort(_mixed(rows))
    low, high = rows[order, 0], rows[order, 1]
    head = np.ones(order.size, bool)
    head[1:] = (low[1:] != low[:-1]) | (high[1:] != high[:-1])
    firsts = np.minimum.reduceat(order, np.flatnonzero(head))
    rank = np.argsort(firsts)
    index = np.empty(rank.size, np.intp)
    index[rank] = np.arange(rank.size)
    group = np.empty(order.size, np.intp)
    group[order] = index[np.cumsum(head) - 1]
    return firsts[rank], group


def _parse_times(stamps: list[str]) -> tuple[np.ndarray, Optional[str]]:
    """``stamps`` as uint64 up to the first that ``int`` rejects or that lies
    outside [0, 2^64), and that one's fault (None if every stamp is good)."""
    values = []
    for stamp in stamps:
        try:
            value = int(stamp)
        except ValueError:
            return np.array(values, np.uint64), f"bad timestamp {stamp!r}"
        if not 0 <= value < 2**64:
            return np.array(values, np.uint64), "timestamp outside [0, 2^64)"
        values.append(value)
    return np.array(values, np.uint64), None


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
            position, n = stream.final_m, stream.final_n
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


def cache_key(path: str, no_time: bool) -> tuple[int, int, int]:
    """What a sidecar must have been written for to stand in for a fresh
    parse of ``path``: ``no_time``, the input's size in bytes and its
    modification time in nanoseconds."""
    st = os.stat(path)
    return int(no_time), st.st_size, st.st_mtime_ns


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
            for column, dtype in zip(columns, _COLUMN_DTYPES):
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
    magic, a key mismatch, more than 2^31 - 1 links, a payload of the wrong
    size or a broken invariant.
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
        if final_m > _MAX_LINKS:
            raise ValueError(f"too many links for 32-bit arrivals: {final_m} in {path}")
        payload = f.read()
    lengths = (final_m, final_m, final_m, final_m + 1)
    if len(payload) != sum(k * dtype.itemsize for k, dtype in zip(lengths, _COLUMN_DTYPES)):
        raise ValueError(f"truncated cache payload: {path}")
    columns = []
    offset = 0
    for k, dtype in zip(lengths, _COLUMN_DTYPES):
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
