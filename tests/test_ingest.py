import dataclasses
import gzip
import os
import re
import tempfile
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netreplay import ingest
from netreplay.generate import gen_preferential
from netreplay.ingest import ArrivalStream, StreamFormatError
from oracles import RawEvent, normalize, open_event_file, parse_event_stream

KEY = (0, 123, 456)  # a cache_key as if from a real input file


def read_bytes(data, name="trace.txt", work=None, **opts):
    """Write ``data`` to a fresh file called ``name`` and read it back,
    filling ``work`` with the load's counts if it is given."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        with open(path, "wb") as f:
            f.write(data)
        return ingest.normalize(path, work=work, **opts)


def read_events(events):
    """The stream of a trace file holding ``events``, one line each."""
    return read_bytes("".join(f"{e.time} {e.src} {e.dst}\n" for e in events).encode())


def read_lines(text, **opts):
    return read_bytes(text.encode(), **opts)


def to_events(stream):
    """Render a stream back to raw events that normalize to it: links as
    first discoveries, loop-only nodes as loops in discovery order."""
    u, v, time, prefix = (
        a.tolist() for a in (stream.u, stream.v, stream.time, stream.node_count_prefix)
    )
    seen = prefix[0]
    events = [RawEvent(time[0] if time else 0, str(x), str(x)) for x in range(seen)]
    for a, b, t, count in zip(u, v, time, prefix[1:]):
        events.append(RawEvent(t, str(a), str(b)))
        seen = max(seen, a + 1, b + 1)
        events += [RawEvent(t, str(x), str(x)) for x in range(seen, count)]
        seen = max(seen, count)
    return events


def assert_same_stream(got, want):
    """Field-by-field equality of two streams, array dtypes included."""
    for f in dataclasses.fields(ArrivalStream):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def numbered_trace(lines=20000):
    return "".join(f"{i} n{i % 97} n{i * 7 % 101}\n" for i in range(lines)).encode()


def deflate_output(gz):
    """What the deflate stream inside ``gz`` still yields: no header flag,
    check value or truncation stops it early."""
    return zlib.decompressobj(-zlib.MAX_WBITS).decompress(gz[10:])


class TestParse:
    def test_basic_lines(self):
        s = read_lines("0 a b\n5 b c\n")
        assert (s.u.tolist(), s.v.tolist(), s.time.tolist()) == ([0, 1], [1, 2], [0, 5])

    def test_blank_and_comment_lines_skipped(self):
        s = read_lines("# header\n\n1 x y\n   \n2 y z\n")
        assert s.time.tolist() == [1, 2]

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            read_lines("1 a b\n2 a\n")

    def test_bad_timestamp_reports_line_number(self):
        with pytest.raises(StreamFormatError, match="line 1"):
            read_lines("notatime a b\n")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(StreamFormatError, match="line 1"):
            read_lines("-3 a b\n")

    def test_timestamp_beyond_u64_rejected(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            read_lines("1 a b\n18446744073709551616 b c\n")

    def test_largest_u64_timestamp_allowed(self):
        s = read_lines("1 a b\n18446744073709551615 b c\n")
        assert s.time.tolist() == [1, 2**64 - 1]

    def test_decreasing_timestamp_reports_line_number(self):
        with pytest.raises(StreamFormatError, match="timestamp decreases at line 2"):
            read_lines("5 a b\n4 b c\n")

    def test_equal_timestamps_allowed(self):
        assert read_lines("7 a b\n7 c d\n").final_m == 2

    def test_no_time_mode_synthesizes_order(self):
        s = read_lines("a b\nb c\n", no_time=True)
        assert (s.u.tolist(), s.v.tolist(), s.time.tolist()) == ([0, 1], [1, 2], [0, 1])

    def test_no_time_mode_rejects_three_fields(self):
        with pytest.raises(StreamFormatError, match="line 1"):
            read_lines("1 a b\n", no_time=True)

    def test_gzip_input(self):
        s = read_bytes(gzip.compress(b"0 a b\n1 b c\n"), name="trace.txt.gz")
        assert (s.final_n, s.final_m, s.v.tolist()) == (3, 2, [1, 2])

    @pytest.mark.parametrize(
        "corrupt, reads_some",
        [
            pytest.param(lambda gz: gz[: len(gz) // 2], True, id="truncated"),
            pytest.param(lambda gz: gz[:3] + b"\xff" + gz[4:], False, id="bad-header-flags"),
            pytest.param(
                lambda gz: gz[:-5] + bytes([gz[-5] ^ 0xFF]) + gz[-4:], True, id="bad-crc"
            ),
        ],
    )
    def test_unreadable_gzip_names_last_whole_line(self, tmp_path, corrupt, reads_some):
        path = tmp_path / "trace.txt.gz"
        good = numbered_trace()
        gz = corrupt(gzip.compress(good))
        path.write_bytes(gz)
        with pytest.raises(StreamFormatError) as info:
            ingest.normalize(str(path))
        found = re.fullmatch(r"unreadable input after line (\d+): .+", str(info.value))
        assert found, str(info.value)
        # Lines 1..n are whole in what the file still holds.
        n = int(found[1])
        assert deflate_output(gz).count(b"\n") >= n
        assert (n > 0) == reads_some
        if reads_some:
            # An earlier malformed line still wins over the read error.
            lines = good.splitlines(keepends=True)
            lines[4] = b"4 n4\n"
            path.write_bytes(corrupt(gzip.compress(b"".join(lines))))
            with pytest.raises(StreamFormatError, match="^malformed line 5: "):
                ingest.normalize(str(path))

    def test_non_utf8_byte_names_last_whole_line(self, tmp_path, monkeypatch):
        # The error names the line holding the byte, wherever the blocks cut
        # the file, and every line before it is read whole: a malformed line
        # just before it is reported instead.
        good = numbered_trace()
        cut = good.index(b"\n", len(good) // 2) + 1  # start of a line past the middle
        bad_line = good[:cut].count(b"\n") + 1
        bad = good[:cut] + b"\xff" + good[cut:]
        previous = good.rindex(b"\n", 0, cut - 1) + 1
        worse = good[:previous] + b"x\n\xff" + good[cut:]
        for block in (ingest._BLOCK_BYTES, 4093):
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
            for payload, message in (
                (bad, f"line {bad_line} is not valid utf-8"),
                (worse, f"malformed line {bad_line - 1}: expected '<time> <src> <dst>'"),
            ):
                for name, data in (("trace.txt", payload), ("trace.txt.gz", gzip.compress(payload))):
                    path = tmp_path / name
                    path.write_bytes(data)
                    with pytest.raises(StreamFormatError) as info:
                        ingest.normalize(str(path))
                    assert str(info.value) == message

    def test_valid_non_ascii_tokens_accepted(self):
        s = read_lines("0 café naïve\n1 naïve über\n")
        assert (s.final_n, s.u.tolist(), s.v.tolist()) == (3, [0, 1], [1, 2])


# Separators, line ends and odd timestamps the reference reader accepts or
# rejects in its own way.
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u3000"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
NODES = st.sampled_from(
    ["a", "b", "c", "d", "10.0.0.1", "café", "日本", "#", "0", "1", "7", "12", "007", "00"]
)
ODD_STAMPS = st.sampled_from(
    ["+5", "1_0", "\u0663", "-0", "-3", "x", "1.5", str(2**64 - 1), str(2**64)]
)
LINE_KINDS = st.sampled_from(
    ["link"] * 30 + ["blank", "comment"] * 2 + ["short", "long", "odd-time", "back"]
)


@st.composite
def traces(draw):
    """Trace bytes and a no_time flag: mostly good lines, with blank and
    comment lines, wrong field counts, odd or decreasing timestamps, mixed
    separators and line ends, and now and then a byte that is not UTF-8."""
    no_time = draw(st.booleans())
    time = 0
    lines = []
    for kind in draw(st.lists(LINE_KINDS, max_size=30)):
        if kind == "blank":
            fields = []
        elif kind == "comment":
            fields = ["#" + draw(NODES), *draw(st.lists(NODES, max_size=3))]
        else:
            fields = [draw(NODES), draw(NODES)]
            if not no_time:
                time += draw(st.integers(0, 2))
                stamp = {"odd-time": draw(ODD_STAMPS), "back": str(time - 1)}.get(kind, str(time))
                fields.insert(0, stamp)
            if kind == "short":
                fields.pop()
            elif kind == "long":
                fields.append(draw(NODES))
        margin = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(margin + draw(SEPARATORS).join(fields) + margin + draw(LINE_ENDS))
    data = "".join(lines).encode()
    if lines and draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if data and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, no_time


def oracle_read(path, no_time=False):
    with open_event_file(path) as f:
        return normalize(parse_event_stream(f, no_time))


def outcome(read, path, no_time):
    """The stream ``read`` returns for ``path``, or its StreamFormatError's text."""
    try:
        return read(path, no_time)
    except StreamFormatError as exc:
        return str(exc)


def assert_reads_like_oracle(data, no_time, block=None):
    """The block reader and the line-by-line reference give the same stream,
    dtypes included, or the same error message, plain and gzipped, with
    blocks of ``block`` bytes (the default when None)."""
    with tempfile.TemporaryDirectory() as d, mock.patch.object(
        ingest, "_BLOCK_BYTES", block or ingest._BLOCK_BYTES
    ):
        for name, payload in (("t.txt", data), ("t.txt.gz", gzip.compress(data))):
            path = os.path.join(d, name)
            with open(path, "wb") as f:
                f.write(payload)
            got = outcome(ingest.normalize, path, no_time)
            want = outcome(oracle_read, path, no_time)
            if isinstance(want, str) or isinstance(got, str):
                assert got == want
            else:
                assert_same_stream(got, want)


def assert_same_distinct(keys):
    """``ingest._distinct`` gives what ``np.unique`` gives with
    ``return_index``, element for element, dtypes included."""
    got, want = ingest._distinct(keys), np.unique(keys, return_index=True)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


# (id, trace bytes, no_time)
EDGE_TRACES = [
    ("blank-comment-tabs", b"#\n# h\n\n0 a b\n#x y z\n  \t\n1\ta\t\tc\n# a b c\n\t#1 2 3\n2   c    d  \n", False),
    ("comment-only-hash", b"#\n0 a #b\n", False),
    ("crlf", b"0 a b\r\n1 b c\r\n\r\n2 c a\r\n", False),
    ("lone-cr", b"0 a b\r1 b c\r\r2 c d\r", False),
    ("mixed-ends", b"0 a b\r\n\r1 b c\n\r\n2 c d\r3 d a", False),
    ("no-final-newline", b"0 a b\n1 b c", False),
    ("cr-then-blank-end", b"0 a b\n\r", False),
    ("ascii-separators", b"0\x1ca\x1db\n1\x1eb\x1fc\n2\x0bc\x0cd\n", False),
    ("unicode-separators", "0\u0085a\u00a0b\n1\u3000b c\n\u3000\n".encode(), False),
    ("line-separator-is-no-line-end", "0 a b\u20281 c d\n".encode(), False),
    ("non-ascii-tokens", "0 café naïve\n1 naïve über\n2 日本 über\n3 über 日本\n".encode(), False),
    ("nul-in-token", b"0 a\x00 b\n1 b a\x00\n", False),
    ("plus-time", b"+5 a b\n6 b c\n", False),
    ("underscore-time", b"1_0 a b\n10 b c\n", False),
    ("arabic-indic-time", "\u0663 a b\n3 b c\n".encode(), False),
    ("minus-zero-time", b"-0 a b\n0 b c\n", False),
    ("negative-time", b"0 a b\n-3 b c\n", False),
    ("largest-time", b"1 a b\n18446744073709551615 b c\n", False),
    ("time-2-to-64", b"1 a b\n18446744073709551616 b c\n", False),
    ("float-time", b"1.5 a b\n", False),
    ("bom-time", b"\xef\xbb\xbf0 a b\n", False),
    ("too-few-fields", b"0 a b\n1 a\n", False),
    ("too-many-fields", b"0 a b\n1 a b c\n", False),
    ("decreasing", b"5 a b\n4 b c\n", False),
    ("decrease-before-malformed", b"5 a b\n4 b c\n1 x\n", False),
    ("malformed-before-bad-time", b"0 a b\nx y\nz c d\n", False),
    ("bad-time-before-malformed", b"0 a b\nz c d\nx\n", False),
    ("decrease-before-bad-time", b"3 a b\n2 b c\nz c d\n", False),
    ("malformed-before-bad-utf8", b"0 a\n1 \xff b\n", False),
    ("bad-utf8-before-malformed", b"0 a b\n1 \xff b\n1 a\n", False),
    ("bad-utf8-in-comment", b"0 a b\n# \xff\n", False),
    ("encoded-surrogate", b"0 a b\n1 b \xed\xa0\x80\n", False),
    ("cut-multibyte-at-end", b"0 a b\n1 b \xc3", False),
    ("loops-and-duplicates", b"0 a a\n1 a b\n2 b a\n3 c c\n4 c a\n5 a c\n", False),
    ("empty", b"", False),
    ("comments-only", b"# x\n\n", False),
    ("no-time", b"a b\nb c\n# c\n\nc a\r\nb a\rd d\n", True),
    ("no-time-three-fields", b"a b\n1 a b\n", True),
    ("no-time-one-field", b"a b\nc\n", True),
    # Decimal tokens: read by value where every data line of a block allows
    # it, through the token dictionary elsewhere, with the same node ids.
    ("leading-zero-is-another-node", b"0 007 7\n1 7 007\n2 07 7\n3 7 8\n", False),
    ("zero-and-double-zero", b"0 0 00\n1 00 0\n2 0 1\n3 00 1\n", False),
    ("decimal-above-cap", b"0 16777215 16777216\n1 16777216 1\n2 1 16777215\n3 99999999 1\n",
     False),
    ("decimal-after-hostname", b"0 ab 12\n1 12 34\n2 34 ab\n3 12 56\n4 56 34\n", False),
    ("decimal-before-hostname", b"0 12 34\n1 ab 12\n2 34 ab\n3 56 12\n4 ab 56\n", False),
    ("decimal-after-comment", b"# 12 34\n0 34 12\n#x 56\n1 56 12\n", False),
    ("decimal-before-comment", b"0 12 34\n# 12 ab\n1 ab 12\n2 12 34\n", False),
    ("decimal-no-time", b"3 1\n1 3\n01 3\n3 2\n", True),
    ("stamp-19-digits", b"0000000000000000001 1 2\n999999999999999998 2 3\n9999999999999999999 3 4\n",
     False),
    ("stamp-20-digits", b"1 1 2\n10000000000000000000 2 3\n18446744073709551615 3 4\n",
     False),
    ("stamp-20-digits-decreasing", b"00000000000000000005 1 2\n4 2 3\n", False),
    ("stamp-leading-zeros", b"007 1 2\n7 2 3\n0008 3 1\n", False),
    # Short tokens of other blocks: packed and looked up in the id table
    # where a block's times are read by arithmetic, through the dictionary
    # elsewhere, with the same node ids.
    ("quad-prefixes", b"0 10.0.0.1 10.0.0.10\n1 10.0.0.10 10.0.0.100\n2 10.0.0.100 10.0.0.1\n"
     b"3 10.0.0.1 10.0.0.10\n", False),
    ("tokens-of-15-and-16-bytes", b"0 255.255.255.255 255.255.255.2550\n1 10.0.0.1 255.255.255.255\n"
     b"2 255.255.255.2550 10.0.0.1\n3 255.255.255.255 255.255.255.25\n", False),
    ("nul-suffix-is-another-node", b"0 a a\x00\n1 a\x00 a\x00\x00\n2 a\x00\x00 a\n3 a\x00 a\n", False),
    ("zero-padded-quads", b"0 10.0.0.01 10.0.0.1\n1 10.0.0.1 010.0.0.1\n2 10.00.0.1 10.0.0.01\n"
     b"3 010.0.0.1 10.0.0.1\n", False),
    ("decimals-and-quads", b"0 1 10.0.0.1\n1 10.0.0.1 2\n2 2 1\n3 10.0.0.2 10\n4 10 10.0.0.1\n", False),
    ("quads-with-an-odd-stamp", b"0 10.0.0.1 10.0.0.2\n+1 10.0.0.2 10.0.0.3\n1 10.0.0.3 10.0.0.1\n",
     False),
    ("quads-no-time", b"10.0.0.1 10.0.0.2\n10.0.0.2 a\n1 10.0.0.1\n", True),
]


QUADS = st.sampled_from(
    ["10.0.0.1", "10.0.0.10", "10.0.0.100", "10.0.0.01", "010.0.0.1", "1.2.3.4",
     "192.168.100.200", "255.255.255.255", "a", "a\x00", "0", "7"]
)
ADDRESS_RUNS = {
    "quad": QUADS,
    "decimal": st.integers(0, 30).map(str),
    "name": st.sampled_from(["host-a.example.org", "host-b.example.org", "192.168.100.2000"]),
}


@st.composite
def address_traces(draw):
    """Trace bytes and a no_time flag: runs of lines whose endpoints are
    dotted quads (prefixes of each other, zero-padded, 15 bytes long), plain
    decimals or names of more than 15 bytes, so that small blocks take each
    way to node ids and meet tokens another way has numbered."""
    no_time = draw(st.booleans())
    time = 0
    lines = []
    runs = st.tuples(st.sampled_from(sorted(ADDRESS_RUNS)), st.integers(1, 12))
    for kind, count in draw(st.lists(runs, max_size=12)):
        for _ in range(count):
            fields = [draw(ADDRESS_RUNS[kind]), draw(ADDRESS_RUNS[kind])]
            if not no_time:
                time += draw(st.integers(0, 1))
                fields.insert(0, str(time))
            lines.append(" ".join(fields) + "\n")
    return "".join(lines).encode(), no_time


def address_trace(lines=30_000, quads_only=False):
    """A trace over 3000 dotted quads in 10/8, with runs of decimal lines
    long enough to fill blocks and now and then a zero-padded quad or a
    name of more than 15 bytes, unless ``quads_only``."""
    rng = np.random.default_rng(12)
    addr = rng.choice(1 << 24, size=3000, replace=False).tolist()
    quads = [f"10.{a >> 16}.{a >> 8 & 255}.{a & 255}" for a in addr]
    out = []
    for i, (a, b) in enumerate(rng.integers(0, 3000, size=(lines, 2)).tolist()):
        if i // 2000 % 4 == 3 and not quads_only:
            a, b = str(a), str(b)
        else:
            a, b = quads[a], quads[b]
            if quads_only:
                pass
            elif i % 2900 == 5:
                b = f"host-{b}.example.net"
            elif i % 3700 == 9:
                b = "0" + b
        out.append(f"{i // 3} {a} {b}\n")
    return "".join(out).encode()


class TestBlockReader:
    @pytest.mark.parametrize("block", [None, 1, 2, 7])
    @pytest.mark.parametrize(
        "data, no_time", [pytest.param(d, n, id=i) for i, d, n in EDGE_TRACES]
    )
    def test_edge_traces_match_reference(self, data, no_time, block):
        assert_reads_like_oracle(data, no_time, block)

    @given(traces(), st.sampled_from([None, 1, 2, 7, 64]))
    @settings(max_examples=300, deadline=None)
    def test_generated_traces_match_reference(self, trace, block):
        assert_reads_like_oracle(*trace, block)

    def test_multi_block_trace_matches_reference(self):
        # Several default blocks, with links repeated across them.
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 3000, size=(60_000, 2))
        text = "".join(f"{i // 2} n{a} n{b}\n" for i, (a, b) in enumerate(pairs.tolist()))
        assert len(text) > 2 * ingest._BLOCK_BYTES
        assert_reads_like_oracle(text.encode(), False)

    def test_mixed_decimal_and_hostname_blocks_match_reference(self, monkeypatch):
        # Decimal blocks, blocks with a hostname, a leading zero or a token
        # above the cap, and decimal tokens seen first in either kind.
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, 3000, size=(40_000, 2)).tolist()
        lines = []
        for i, (a, b) in enumerate(pairs):
            if i % 2500 == 7:
                a = f"h{a}"
            elif i % 3100 == 11:
                b = f"0{b}"
            elif i % 4700 == 13:
                b = 2**24 + b
            lines.append(f"{i // 3} {a} {b}\n")
        data = "".join(lines).encode()
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 14)
        assert_reads_like_oracle(data, False)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.txt")
            with open(path, "wb") as f:
                f.write(data)
            work = {}
            stream = ingest.normalize(path, work=work)
            assert 0 < work["decimal_blocks"] < work["blocks"]
            # The dictionary alone gives the same ids.
            monkeypatch.setattr(ingest, "_decimal_tokens", lambda *args: None)
            monkeypatch.setattr(ingest, "_packed_tokens", lambda *args: None)
            general = {}
            assert_same_stream(ingest.normalize(path, work=general), stream)
            assert general["decimal_blocks"] == general["id_cache_blocks"] == 0
            assert general["blocks"] == work["blocks"]

    @given(address_traces(), st.sampled_from([16, 64, 256]), st.sampled_from([None, 0]))
    @settings(max_examples=200, deadline=None)
    def test_address_traces_match_reference(self, trace, block, multiplier):
        # A multiplier of 0 puts every token in one id table slot.
        with mock.patch.object(
            ingest, "_HASH_MULTIPLIER", ingest._HASH_MULTIPLIER if multiplier is None
            else np.uint64(multiplier)
        ):
            assert_reads_like_oracle(*trace, block)

    def test_dotted_quad_blocks_match_reference(self, monkeypatch):
        data = address_trace()
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 14)
        assert_reads_like_oracle(data, False)
        work, alone = {}, {}
        stream = read_bytes(data, work=work)
        assert 0 < work["id_cache_blocks"]
        assert 0 < work["decimal_blocks"]
        assert work["id_cache_blocks"] + work["decimal_blocks"] < work["blocks"]
        # The dictionary alone gives the same ids, with more lookups.
        monkeypatch.setattr(ingest, "_packed_tokens", lambda *args: None)
        assert_same_stream(read_bytes(data, work=alone), stream)
        assert alone["id_cache_blocks"] == 0
        assert alone["decimal_blocks"] == work["decimal_blocks"]
        assert alone["token_lookups"] > work["token_lookups"]

    @pytest.mark.parametrize("multiplier", [0, 1, 3])
    def test_weak_hash_gives_the_same_stream(self, monkeypatch, multiplier):
        # 0 puts every token in one slot; 1 and 3 hash by a few high bytes.
        # A weak hash costs id table probes, never a dictionary lookup: none
        # on dotted quads alone, and as many as under the real hash where
        # decimal runs and long names fill the dictionary.
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 14)
        strong = ingest._HASH_MULTIPLIER
        for quads_only in (True, False):
            data = address_trace(12_000, quads_only)
            work, weak_work = {}, {}
            monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", strong)
            stream = read_bytes(data, work=work)
            monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", np.uint64(multiplier))
            assert_same_stream(read_bytes(data, work=weak_work), stream)
            assert weak_work["id_cache_blocks"] == work["id_cache_blocks"] > 0
            assert weak_work["token_lookups"] == work["token_lookups"]
            assert (work["token_lookups"] == 0) == quads_only
            assert weak_work["id_probes"] > work["id_probes"]

    @pytest.mark.parametrize("multiplier", [None, 0])
    @pytest.mark.parametrize("block", [None, 1, 2, 7])
    def test_ids_across_the_dictionary_fill(self, monkeypatch, block, multiplier):
        # Decimal blocks number their nodes while the dictionary is empty.
        # An id table block, then a split block, each name earlier decimals
        # and new tokens, decimals among them, which later decimal blocks
        # name again. A multiplier of 0 puts every token in one slot.
        decimal_first = (
            b"0 1 2\n1 2 3\n2 3 1\n3 4 5\n"
            b"4 3 10.0.0.1\n4 10.0.0.2 6\n4 10.0.0.1 1\n"
            b"5 host-a.example.org 4\n5 7 host-a.example.org\n5 2 10.0.0.2\n"
            b"6 6 7\n7 7 8\n8 6 1\n9 8 10.0.0.1\n"
        )
        # Id table blocks number their nodes while the dictionary is empty,
        # decimals among them (12 beside 10.0.0.1). Decimal blocks name those
        # decimals and a new one, a split block a 16-byte token, and later id
        # table and decimal blocks name tokens of every kind again.
        packed_first = (
            b"0 10.0.0.1 12\n1 12 10.0.0.2\n2 10.0.0.2 7\n3 10.0.0.3 10.0.0.1\n"
            b"4 12 7\n5 7 13\n6 13 12\n"
            b"7 255.255.255.2550 10.0.0.1\n7 13 255.255.255.2550\n"
            b"7 10.0.0.4 12\n8 10.0.0.4 10.0.0.3\n9 14 10.0.0.2\n9 255.255.255.255 13\n"
            b"10 14 12\n11 15 7\n"
        )
        if multiplier is not None:
            monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", np.uint64(multiplier))
        assert_reads_like_oracle(decimal_first, False, block)
        assert_reads_like_oracle(packed_first, False, block)
        if block == 1:  # one line a block, so each way meets its lines
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1)
            work = {}
            read_bytes(decimal_first, work=work)
            assert (work["decimal_blocks"], work["id_cache_blocks"], work["blocks"]) == (7, 5, 14)
            read_bytes(packed_first, work=work)
            assert (work["decimal_blocks"], work["id_cache_blocks"], work["blocks"]) == (5, 8, 15)
            # Before the first decimal block the id table numbers 10.0.0.1 to
            # 10.0.0.3, 12 and 7 alone. After it the dictionary gives the
            # ids, and each path looks a token up only the first time it
            # meets it: 12 and 7, then 13, the split lines' four tokens,
            # 10.0.0.4, 14 on either path, 255.255.255.255 and 13 in the id
            # table, and 15.
            assert work["token_lookups"] == 13

    def test_table_doubles_under_one_slot(self, monkeypatch):
        # A multiplier of 0 gives every token the same first slot, so each
        # lookup and insertion reads past every id held. Blocks of about 300
        # lines add 3000 addresses, so the table doubles from 1024 slots to
        # 8192, once per block that takes it past half full. One address
        # ends every even line, and on the odd lines of each ten the one
        # those ten open with, so many rows of a block pack alike, some of
        # a token first seen in that block.
        monkeypatch.setattr(ingest, "_HASH_MULTIPLIER", np.uint64(0))
        rng = np.random.default_rng(8)
        addr = rng.choice(1 << 24, size=3001, replace=False).tolist()
        quads = [f"10.{a >> 16}.{a >> 8 & 255}.{a & 255}" for a in addr]
        data = "".join(
            f"{i} {quads[i]} {quads[i // 10 * 10 + 1] if i % 2 else quads[3000]}\n"
            for i in range(3000)
        ).encode()
        assert_reads_like_oracle(data, False, 1 << 13)
        blocks = ingest._BlockNormalizer(no_time=False)
        sizes = []
        for start in range(0, 3000, 300):
            blocks.feed(b"".join(data.splitlines(keepends=True)[start : start + 300]))
            sizes.append(blocks.table.size)
        assert blocks.held == blocks.nodes == 3001
        assert sorted(set(sizes)) == [1024, 2048, 4096, 8192]
        assert blocks.index == {}

    def test_packed_tokens_are_equal_only_for_equal_fields(self):
        fields = ["10.0.0.1", "10.0.0.10", "10.0.0.01", "a", "a\x00", "a\x00\x00", "\x00",
                  "255.255.255.255", "12345678", "123456780"]
        text = " ".join(fields) + "\n"
        code = np.frombuffer(text.encode(), np.uint8)
        stops = np.cumsum([len(f) + 1 for f in fields]) - 1
        starts = stops - [len(f) for f in fields]
        words = ingest._packed_tokens(code, starts, stops)
        assert len({tuple(w) for w in words.tolist()}) == len(fields)
        assert ingest._unpacked(words) == fields
        assert ingest._packed_tokens(code, starts[:1], starts[:1] + 16) is None

    def test_load_counts(self, tmp_path):
        lines = 40_000
        trace = numbered_trace(lines)
        decimal = tmp_path / "decimal.txt.gz"
        decimal.write_bytes(gzip.compress(trace.replace(b" n", b" ")))
        named = tmp_path / "named.txt"  # tokens n0 to n100: the id table
        named.write_bytes(trace)
        long = tmp_path / "long.txt"  # 16-byte tokens: the dictionary alone
        long.write_bytes(trace.replace(b" n", b" host-name-0000-"))
        for path, way in ((decimal, "decimal_blocks"), (named, "id_cache_blocks"), (long, None)):
            work = {}
            ingest.normalize(str(path), work=work)
            assert set(work) == {
                "blocks", "decimal_blocks", "id_cache_blocks", "token_lookups", "id_probes"
            }
            assert work["blocks"] >= 2
            for key in ("decimal_blocks", "id_cache_blocks"):
                assert work[key] == (work["blocks"] if key == way else 0)
            lookups = work["token_lookups"]
            if way is not None:
                # A trace of decimals alone, or of short tokens alone, never
                # needs the dictionary.
                assert lookups == 0
            else:
                assert lookups == 2 * lines

    @given(
        st.lists(st.text("0123456789", min_size=1, max_size=21), min_size=1, max_size=40),
        st.sampled_from([np.uint8, np.uint32]),
    )
    @settings(max_examples=200, deadline=None)
    def test_decimal_values_match_int(self, fields, dtype):
        text = " ".join(fields) + "\n"
        code = np.array([ord(c) for c in text], dtype)
        stops = np.cumsum([len(f) + 1 for f in fields]) - 1
        starts = stops - [len(f) for f in fields]
        got = ingest._decimal_values(code, starts, stops, 19)
        if max(map(len, fields)) > 19:
            assert got is None
        else:
            assert got.dtype == np.uint64 and got.tolist() == [int(f) for f in fields]

    @pytest.mark.parametrize("field", ["+5", "1_0", "\u0663", "-0", "1.5", "x", "/", ":"])
    def test_decimal_values_reject_other_fields(self, field):
        code = np.array([ord(c) for c in f"12 {field}\n"], np.uint32)
        stops = np.array([2, len(code) - 1])
        assert ingest._decimal_values(code, np.array([0, 3]), stops, 19) is None

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=300), st.integers(1, 2**63))
    @settings(max_examples=200, deadline=None)
    def test_distinct_equals_unique(self, keys, spread):
        # ``spread`` folds the keys into few values, so ties are many.
        keys = np.array(keys, np.int64) % np.int64(min(spread, 2**63 - 1))
        assert_same_distinct(keys)

    @pytest.mark.parametrize("size, values", [(0, 1), (1, 1), (10_000, 3), (10_000, 1000)])
    def test_distinct_equals_unique_on_long_runs(self, size, values):
        assert_same_distinct(np.random.default_rng(size + values).integers(0, values, size))

    def test_kept_runs_stay_few_sorted_and_complete(self):
        # Every link kept so far is in exactly one run; each run is sorted
        # and more than twice the size of the next.
        blocks = ingest._BlockNormalizer(no_time=False)
        rng = np.random.default_rng(4)
        t = 0
        for size in rng.integers(1, 400, size=300).tolist():
            pairs = rng.integers(0, 300, size=(size, 2)).tolist()
            blocks.feed("".join(f"{t} {a} {b}\n" for a, b in pairs).encode())
            t += 1
            runs = [blocks.kept[a:b] for a, b in zip(blocks.runs, blocks.runs[1:])]
            assert all(np.all(run[1:] > run[:-1]) for run in runs)
            assert all(a.size > 2 * b.size for a, b in zip(runs, runs[1:]))
        stream = blocks.stream()
        lo = np.minimum(stream.u, stream.v).astype(np.int64)
        hi = np.maximum(stream.u, stream.v).astype(np.int64)
        kept = np.sort(np.concatenate(runs))
        assert np.array_equal(kept, np.sort(lo << 31 | hi))
        assert len(runs) <= np.log2(stream.final_m) + 1

    def test_traced_peak_bounded_per_node_link_and_block(self, monkeypatch):
        # Beside the buffers every load starts with (4096 entries of the four
        # columns and of the kept keys, 1024 rows of stored words and 1024
        # table slots), a load of short tokens holds at most 40 bytes per
        # node (two to four table slots of 4 bytes, and 16 bytes of stored
        # words grown by a quarter), 48 per link (the columns' 24 bytes and
        # the kept keys' 8, each grown by a quarter, and a merge buffer of up
        # to 4) and 24 per byte of the block it parses. A token dictionary
        # alone would take about 115 bytes per node.
        n, block = 6000, 1 << 12
        _, u, v = gen_preferential(n, 1, seed=3)
        addr = np.random.default_rng(3).choice(1 << 24, size=n, replace=False).tolist()
        quads = [f"10.{a >> 16}.{a >> 8 & 255}.{a & 255}" for a in addr]
        data = "".join(f"{i} {quads[a]} {quads[b]}\n" for i, (a, b) in enumerate(zip(u, v)))
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "quads.txt")
            Path(path).write_bytes(data.encode())
            work = {}
            tracemalloc.start()
            try:
                stream = ingest.normalize(path, work=work)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert (stream.final_n, stream.final_m) == (n, n - 1)
        assert work["id_cache_blocks"] == work["blocks"] > 40
        start = (1 << 12) * (4 + 4 + 8 + 8 + 8) + (1 << 10) * (16 + 4)
        assert peak < start + 40 * n + 48 * stream.final_m + 24 * block

    def test_whitespace_is_str_isspace(self):
        code = np.arange(0x110000, dtype=np.uint32)
        want = np.array([chr(c).isspace() for c in range(0x110000)])
        assert np.array_equal(ingest._whitespace(code), want)


def normalize_or_message(path, **opts):
    """``ingest.normalize(path)``'s stream, or its StreamFormatError text."""
    try:
        return ingest.normalize(str(path), **opts)
    except StreamFormatError as exc:
        return str(exc)


class TestReadFaults:
    def test_gzipped_trace_read_to_the_end(self, tmp_path):
        path = tmp_path / "t.txt.gz"
        path.write_bytes(gzip.compress(numbered_trace()))
        got = normalize_or_message(path)
        assert got.final_m > 0
        assert_same_stream(got, oracle_read(str(path)))

    def test_bad_line_in_first_of_many_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4096)
        path = tmp_path / "t.txt.gz"
        path.write_bytes(gzip.compress(b"0 a\n" + numbered_trace(50_000)))
        message = "malformed line 1: expected '<time> <src> <dst>'"
        assert normalize_or_message(path) == message

    def test_truncated_gzip_reported_after_its_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4096)
        path = tmp_path / "t.txt.gz"
        gz = gzip.compress(numbered_trace())
        path.write_bytes(gz[: len(gz) // 2])
        assert normalize_or_message(path).startswith("unreadable input after line ")

    def test_interrupt_reaches_the_caller(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4096)
        path = tmp_path / "t.txt"
        path.write_bytes(numbered_trace())
        feed = ingest._BlockNormalizer.feed
        fed = []

        def interrupted(self, chunk):
            fed.append(chunk)
            if len(fed) == 2:
                raise KeyboardInterrupt
            feed(self, chunk)

        monkeypatch.setattr(ingest._BlockNormalizer, "feed", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ingest.normalize(str(path))

    def test_read_error_raised_after_earlier_chunks(self, tmp_path, monkeypatch):
        # An error met while reading reaches the caller once the chunks read
        # before it were parsed.
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4096)
        path = tmp_path / "t.txt"
        path.write_bytes(numbered_trace())
        read_block = ingest._read_block
        reads = []

        def failing(f, buf):
            reads.append(1)
            if len(reads) == 3:
                raise OSError("disk gone")
            return read_block(f, buf)

        feed = ingest._BlockNormalizer.feed
        fed = []
        monkeypatch.setattr(ingest, "_read_block", failing)
        monkeypatch.setattr(
            ingest._BlockNormalizer, "feed", lambda self, chunk: fed.append(feed(self, chunk))
        )
        with pytest.raises(OSError, match="disk gone"):
            ingest.normalize(str(path))
        assert len(fed) == 2


class TestNormalize:
    def test_two_links_four_nodes(self):
        s = read_events([RawEvent(1, "a", "b"), RawEvent(2, "c", "d")])
        assert s.final_n == 4 and s.final_m == 2
        assert s.node_count_prefix.tolist() == [0, 2, 4]
        assert s.u.tolist() == [0, 2] and s.v.tolist() == [1, 3]

    def test_duplicate_and_loop_dropped(self):
        s = read_events(
            [RawEvent(1, "a", "b"), RawEvent(2, "b", "a"), RawEvent(3, "a", "a")]
        )
        assert s.final_n == 2 and s.final_m == 1
        assert s.node_count_prefix.tolist() == [0, 2]

    def test_loop_discovers_node(self):
        s = read_events(
            [RawEvent(1, "a", "b"), RawEvent(2, "e", "e"), RawEvent(3, "a", "d")]
        )
        assert s.final_n == 4 and s.final_m == 2
        # node e is counted before the second surviving link
        assert s.node_count_prefix.tolist() == [0, 3, 4]

    def test_first_appearance_indexing(self):
        s = read_events([RawEvent(0, "z", "q"), RawEvent(1, "q", "a")])
        assert s.u.tolist() == [0, 1] and s.v.tolist() == [1, 2]

    def test_all_loops_stream(self):
        s = read_events([RawEvent(0, "a", "a"), RawEvent(1, "b", "b")])
        assert s.final_n == 2 and s.final_m == 0
        assert s.u.size == s.v.size == 0

    def test_links_beyond_the_cap_rejected(self, monkeypatch):
        # The cap keeps each link's index an int32 arrival; a duplicate and a
        # loop are not links, so they do not count toward it.
        monkeypatch.setattr(ingest, "_MAX_LINKS", 2)
        events = [RawEvent(0, "a", "b"), RawEvent(1, "b", "a"), RawEvent(2, "c", "c")]
        assert read_events(events + [RawEvent(3, "b", "c")]).final_m == 2
        with pytest.raises(ValueError, match=r"^too many links for 32-bit arrivals: 3$"):
            read_events(events + [RawEvent(3, "b", "c"), RawEvent(4, "c", "a")])

    def test_dedup_against_independent_scan(self):
        # 10_000 events, ~20% duplicates, ~5% loops
        rng = np.random.default_rng(42)
        events = []
        emitted = []
        for i in range(10_000):
            roll = rng.random()
            if roll < 0.05 or not emitted:
                x = int(rng.integers(0, 400))
                events.append(RawEvent(i, f"n{x}", f"n{x}"))
            elif roll < 0.25:
                a, b = emitted[int(rng.integers(0, len(emitted)))]
                if rng.random() < 0.5:
                    a, b = b, a
                events.append(RawEvent(i, a, b))
            else:
                a, b = int(rng.integers(0, 400)), int(rng.integers(0, 400))
                if a == b:
                    b = (b + 1) % 400
                events.append(RawEvent(i, f"n{a}", f"n{b}"))
                emitted.append((f"n{a}", f"n{b}"))
        s = read_events(events)

        # oracle: plain dict/set scan
        idx = {}
        pairs = set()
        kept = []
        for ev in events:
            if ev.src not in idx:
                idx[ev.src] = len(idx)
            if ev.src == ev.dst:
                continue
            if ev.dst not in idx:
                idx[ev.dst] = len(idx)
            key = frozenset((idx[ev.src], idx[ev.dst]))
            if key in pairs:
                continue
            pairs.add(key)
            kept.append((idx[ev.src], idx[ev.dst], ev.time))
        assert s.final_n == len(idx)
        assert s.final_m == len(kept)
        assert [(u, v, t) for u, v, t in zip(s.u, s.v, s.time)] == kept

    def test_prefix_monotone_and_consistent(self):
        rng = np.random.default_rng(3)
        events = []
        for i in range(2000):
            a, b = rng.integers(0, 150, size=2)
            events.append(RawEvent(i, str(a), str(b)))  # loops included
        s = read_events(events)
        prefix = s.node_count_prefix
        assert np.all(np.diff(prefix) >= 0)
        assert prefix[-1] == s.final_n
        # every event's endpoints are discovered by its own prefix entry
        assert np.all(prefix[1:] >= np.maximum(s.u, s.v) + 1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=60
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_through_rendered_events(self, pairs):
        events = [RawEvent(i, str(a), str(b)) for i, (a, b) in enumerate(pairs)]
        s = read_events(events)
        s2 = read_events(to_events(s))
        assert s2.final_n == s.final_n and s2.final_m == s.final_m
        assert np.array_equal(s2.u, s.u) and np.array_equal(s2.v, s.v)
        assert np.array_equal(s2.node_count_prefix, s.node_count_prefix)
        assert np.array_equal(s2.time, s.time)


def reference_plan(events, sizes):
    """checkpoint_plan by walking events one at a time: a target
    lands after the event that discovers its node, the last target after
    the last event, and a target landing where the previous one did is
    dropped."""
    plan = []
    for index, target in enumerate(sizes):
        last = index == len(sizes) - 1
        nodes, links = set(), set()
        for ev in events:
            if len(nodes) >= target and not last:
                break
            nodes.update((ev.src, ev.dst))
            if ev.src != ev.dst:
                links.add(frozenset((ev.src, ev.dst)))
        landing = (len(links), len(nodes))
        if not plan or plan[-1][2:] != landing:
            plan.append((index, target, *landing))
    return plan


class TestReplay:
    def stream(self):
        return read_events([RawEvent(1, "a", "b"), RawEvent(2, "c", "d")])

    def test_exact_target(self):
        assert ingest.checkpoint_plan(self.stream(), (2, 4)) == [(0, 2, 1, 2), (1, 4, 2, 4)]

    def test_overshoot_recorded(self):
        s = read_events(
            [RawEvent(1, "a", "b"), RawEvent(2, "c", "d"), RawEvent(3, "d", "a")]
        )
        # c-d reveals the third and fourth node at once; the last target takes the
        # whole stream though it adds no node
        assert ingest.checkpoint_plan(s, (3, 4)) == [(0, 3, 2, 4), (1, 4, 3, 4)]

    def test_swallowed_target_dropped(self):
        s = read_events(
            [RawEvent(1, "a", "b"), RawEvent(2, "c", "d"), RawEvent(3, "e", "f")]
        )
        # target 4 was met by target 3's overshoot: same position, same n
        assert ingest.checkpoint_plan(s, (3, 4, 6)) == [(0, 3, 2, 4), (2, 6, 3, 6)]
        # a last target that lands on the previous checkpoint is dropped too
        assert ingest.checkpoint_plan(self.stream(), (3, 4)) == [(0, 3, 2, 4)]

    def test_target_beyond_stream_rejected(self):
        with pytest.raises(ValueError):
            ingest.checkpoint_plan(self.stream(), (2, 5))

    def test_positions_never_retreat(self):
        s = read_events(
            [RawEvent(t, a, b) for t, (a, b) in enumerate(
                ["xx", "ab", "ba", "cc", "ac", "de", "db", "ff", "fa"]
            )]
        )
        plan = ingest.checkpoint_plan(s, range(1, s.final_n + 1))
        positions = [p for _, _, p, _ in plan]
        ns = [n for _, _, _, n in plan]
        assert positions == sorted(positions) and positions[-1] == s.final_m
        assert ns == sorted(set(ns)) and ns[-1] == s.final_n

    def test_loop_only_target(self):
        s = read_events(
            [RawEvent(0, "a", "b"), RawEvent(1, "x", "x"), RawEvent(2, "c", "a")]
        )
        # target 3 is reached by the loop discovery, before c-a
        assert ingest.checkpoint_plan(s, (3, 4)) == [(0, 3, 1, 3), (1, 4, 2, 4)]

    def test_targets_before_first_link(self):
        s = read_events(
            [RawEvent(0, "x", "x"), RawEvent(1, "y", "y"), RawEvent(2, "a", "y")]
        )
        # two nodes exist before any link arrives
        assert ingest.checkpoint_plan(s, (1, 2, 3)) == [
            (0, 1, 0, 1), (1, 2, 0, 2), (2, 3, 1, 3)
        ]

    def test_loop_discovers_first_link_endpoint(self):
        # pairs=[(1, 1), (1, 0)] as the reference test below builds them:
        # node "1" exists before the first link, unlike in "1 0" alone
        events = [RawEvent(1, "1", "1"), RawEvent(2, "1", "0")]
        s = read_events(events)
        assert s.node_count_prefix.tolist() == [1, 2]
        assert ingest.checkpoint_plan(s, (1, 2)) == [(0, 1, 0, 1), (1, 2, 1, 2)]
        for sizes in [(1,), (2,), (1, 2)]:
            assert ingest.checkpoint_plan(s, sizes) == reference_plan(events, sizes)

    def test_all_loop_stream(self):
        s = read_events([RawEvent(0, "x", "x"), RawEvent(1, "y", "y")])
        assert s.final_m == 0
        assert ingest.checkpoint_plan(s, (1, 2)) == [(0, 1, 0, 1), (1, 2, 0, 2)]

    @given(
        st.integers(min_value=0, max_value=3),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_event_by_event_reference(self, leading, pairs, data):
        # leading loop-only nodes, then links with loops and duplicates in
        # either direction among few nodes
        events = [RawEvent(0, f"lead{j}", f"lead{j}") for j in range(leading)]
        events += [RawEvent(1 + i, str(a), str(b)) for i, (a, b) in enumerate(pairs)]
        s = read_events(events)
        assume(s.final_n >= 1)
        sizes = sorted(data.draw(st.sets(st.integers(1, s.final_n), min_size=1)))
        assert ingest.checkpoint_plan(s, sizes) == reference_plan(events, sizes)


class TestSchedule:
    def test_even_thousand(self):
        sizes = ingest.checkpoint_sizes(1000, 100)
        assert sizes[:3] == (10, 20, 30)
        assert sizes[-1] == 1000
        assert len(sizes) == 100

    def test_tiny_stream_dedups(self):
        assert ingest.checkpoint_sizes(3, 100) == (1, 2, 3)

    def test_huge_nominal_count_gives_every_node(self):
        # Takes one step per node, not one per nominal checkpoint.
        assert ingest.checkpoint_sizes(50, 10**12) == tuple(range(1, 51))

    def test_round_half_up(self):
        assert ingest.checkpoint_sizes(7, 2) == (4, 7)

    def test_strictly_increasing_and_capped(self):
        for n in (1, 2, 17, 99, 100, 101, 12345):
            sizes = ingest.checkpoint_sizes(n, 100)
            assert all(b > a for a, b in zip(sizes, sizes[1:]))
            assert sizes[-1] == n
            assert len(sizes) <= 100
            assert sizes[0] >= 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ingest.checkpoint_sizes(0, 100)
        with pytest.raises(ValueError):
            ingest.checkpoint_sizes(10, 0)


class TestCache:
    def roundtrip(self, stream, tmp_path):
        path = str(tmp_path / "stream.arrivals")
        ingest.save_cache(stream, path, KEY)
        loaded = ingest.load_cache(path, KEY)
        assert loaded.final_n == stream.final_n
        assert loaded.final_m == stream.final_m
        assert np.array_equal(loaded.u, stream.u)
        assert np.array_equal(loaded.v, stream.v)
        assert np.array_equal(loaded.time, stream.time)
        assert np.array_equal(loaded.node_count_prefix, stream.node_count_prefix)

    def test_roundtrip_plain(self, tmp_path):
        s = read_events(
            [RawEvent(0, "a", "b"), RawEvent(3, "b", "c"), RawEvent(9, "c", "d")]
        )
        self.roundtrip(s, tmp_path)

    def test_roundtrip_with_loop_only_nodes(self, tmp_path):
        s = read_events(
            [
                RawEvent(0, "q", "q"),
                RawEvent(1, "a", "b"),
                RawEvent(2, "z", "z"),
                RawEvent(3, "b", "c"),
                RawEvent(9, "tail", "tail"),
            ]
        )
        self.roundtrip(s, tmp_path)

    def test_roundtrip_empty_link_stream(self, tmp_path):
        s = read_events([RawEvent(0, "a", "a")])
        self.roundtrip(s, tmp_path)

    def test_roundtrip_large_random(self, tmp_path):
        rng = np.random.default_rng(9)
        events = [
            RawEvent(i, str(int(a)), str(int(b)))
            for i, (a, b) in enumerate(rng.integers(0, 500, size=(5000, 2)))
        ]
        self.roundtrip(read_events(events), tmp_path)

    def test_roundtrip_times_beyond_int64(self, tmp_path):
        s = read_events([RawEvent(1, "a", "b"), RawEvent(2**63 + 5, "b", "c")])
        self.roundtrip(s, tmp_path)

    def test_other_key_rejected(self, tmp_path):
        s = read_events([RawEvent(0, "a", "b")])
        path = str(tmp_path / "keyed.arrivals")
        ingest.save_cache(s, path, KEY)
        for other in [(1, 123, 456), (0, 124, 456), (0, 123, 457)]:
            with pytest.raises(ValueError, match="another input or format"):
                ingest.load_cache(path, other)

    def test_write_goes_through_a_unique_temporary_file(self, tmp_path):
        s = read_events([RawEvent(0, "a", "b")])
        path = str(tmp_path / "s.arrivals")
        os.mkdir(path + ".tmp")  # a fixed temporary name would collide with this
        ingest.save_cache(s, path, KEY)
        assert ingest.load_cache(path, KEY).final_m == 1
        assert sorted(os.listdir(tmp_path)) == ["s.arrivals", "s.arrivals.tmp"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.arrivals"
        path.write_bytes(b"NOTCACHE" + b"\x00" * 24)
        with pytest.raises(ValueError, match="not a stream cache"):
            ingest.load_cache(str(path), KEY)

    def test_truncated_payload_rejected(self, tmp_path):
        s = read_events([RawEvent(0, "a", "b"), RawEvent(1, "b", "c")])
        path = str(tmp_path / "trunc.arrivals")
        ingest.save_cache(s, path, KEY)
        data = Path(path).read_bytes()
        with open(path, "wb") as f:
            f.write(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            ingest.load_cache(path, KEY)


# Times that exercise equal stamps and the int64/uint64 boundary.
EVENT_TIMES = st.one_of(
    st.integers(0, 3), st.integers(2**63 - 2, 2**63 + 2), st.just(2**64 - 1)
)

# Links (0,1), (1,3), (3,0) with loop-only node x = 2 between the first two:
# u = [0, 1, 3], v = [1, 3, 0], time = [1, 3, 5], node_count_prefix = [0, 3, 4, 4].
SMALL = [
    RawEvent(1, "a", "b"), RawEvent(2, "x", "x"), RawEvent(3, "b", "c"), RawEvent(5, "c", "a")
]
HEADER_BYTES = 8 + 5 * 8  # magic, final_n, final_m, the three key fields


def edited_sidecar(tmp_path, stream, field, index, value):
    """Save ``stream``, overwrite entry ``index`` of one stored field
    (``final_n``, ``final_m`` or a column) with ``value``, and return the
    sidecar's path."""
    path = str(tmp_path / "edited.arrivals")
    ingest.save_cache(stream, path, KEY)
    data = bytearray(Path(path).read_bytes())
    m = stream.final_m
    views = {
        "final_n": np.frombuffer(data, "<u8", 1, 8), "final_m": np.frombuffer(data, "<u8", 1, 16)
    }
    offset = HEADER_BYTES
    for name, dtype, k in [
        ("u", "<i4", m), ("v", "<i4", m), ("time", "<u8", m), ("prefix", "<i8", m + 1)
    ]:
        views[name] = np.frombuffer(data, dtype, k, offset)
        offset += k * np.dtype(dtype).itemsize
    views[field][index] = value
    with open(path, "wb") as f:
        f.write(data)
    return path


class TestCacheFormat:
    def test_on_disk_layout_is_pinned(self, tmp_path):
        # A change to these bytes is a format change: bump CACHE_MAGIC with it.
        path = str(tmp_path / "small.arrivals")
        ingest.save_cache(read_events(SMALL), path, KEY)
        expected = bytes.fromhex(
            "4e525354524d3034"  # magic "NRSTRM04"
            "0400000000000000"  # final_n = 4
            "0300000000000000"  # final_m = 3
            "0000000000000000"  # key: no_time = 0
            "7b00000000000000"  # key: input size = 123
            "c801000000000000"  # key: mtime_ns = 456
            "00000000" "01000000" "03000000"  # u, i4
            "01000000" "03000000" "00000000"  # v, i4
            "0100000000000000" "0300000000000000" "0500000000000000"  # time, u8
            "0000000000000000" "0300000000000000"  # node_count_prefix, i8 ...
            "0400000000000000" "0400000000000000"  # ... final_m + 1 entries
        )
        assert Path(path).read_bytes() == expected

    @given(
        st.lists(
            st.tuples(EVENT_TIMES, st.integers(0, 9), st.integers(0, 9)), max_size=60
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_file_roundtrip_equals_normalize(self, draws):
        times = sorted(t for t, _, _ in draws)
        events = [RawEvent(t, str(a), str(b)) for t, (_, a, b) in zip(times, draws)]
        stream = read_events(events)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.arrivals")
            ingest.save_cache(stream, path, KEY)
            assert_same_stream(ingest.load_cache(path, KEY), stream)

    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=30),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_corrupted_byte_is_rejected_or_still_consistent(self, pairs, data):
        stream = read_events(
            [RawEvent(i, str(a), str(b)) for i, (a, b) in enumerate(pairs)]
        )
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.arrivals")
            ingest.save_cache(stream, path, KEY)
            raw = bytearray(Path(path).read_bytes())
            at = data.draw(st.integers(0, len(raw) - 1))
            raw[at] ^= data.draw(st.integers(1, 255))
            with open(path, "wb") as f:
                f.write(raw)
            try:
                s = ingest.load_cache(path, KEY)
            except ValueError:
                return
        # accepted bytes must still form a replayable stream
        assert np.all(s.time[1:] >= s.time[:-1])
        assert np.all(s.u != s.v) and np.all(np.minimum(s.u, s.v) >= 0)
        assert np.all(np.diff(s.node_count_prefix, prepend=0) >= 0)
        assert np.all(s.node_count_prefix[1:] > np.maximum(s.u, s.v))
        assert s.node_count_prefix[-1] == s.final_n

    def test_every_truncation_rejected(self, tmp_path):
        path = str(tmp_path / "small.arrivals")
        ingest.save_cache(read_events(SMALL), path, KEY)
        data = Path(path).read_bytes()
        for cut in range(len(data)):
            with open(path, "wb") as f:
                f.write(data[:cut])
            with pytest.raises(ValueError):
                ingest.load_cache(path, KEY)

    @pytest.mark.parametrize(
        "field, index, value, message",
        [
            ("time", 1, 0, "out of order"),
            ("v", 1, 1, "loop"),
            ("u", 0, -1, "negative"),
            # [5, 3, 4, 4] still covers every endpoint and ends at final_n
            ("prefix", 0, 5, "decrease"),
            # [-1, 3, 4, 4] rises from there, but no count is negative
            ("prefix", 0, -1, "decrease"),
            # [0, 1, 4, 4] is non-decreasing, but link (0, 1) needs two nodes
            ("prefix", 1, 1, "below"),
            ("final_n", 0, 5, "node count mismatch"),
        ],
    )
    def test_broken_invariant_rejected(self, tmp_path, field, index, value, message):
        path = edited_sidecar(tmp_path, read_events(SMALL), field, index, value)
        with pytest.raises(ValueError, match=message):
            ingest.load_cache(path, KEY)

    def test_link_count_beyond_int32_rejected(self, tmp_path):
        path = edited_sidecar(tmp_path, read_events(SMALL), "final_m", 0, 2**31)
        with pytest.raises(ValueError, match="too many links for 32-bit arrivals: 2147483648 "):
            ingest.load_cache(path, KEY)

    def test_node_count_beyond_int32_rejected_without_links(self, tmp_path):
        stream = read_events([RawEvent(0, "a", "a")])
        path = edited_sidecar(tmp_path, stream, "final_n", 0, 2**31)
        with pytest.raises(ValueError, match="node count mismatch"):
            ingest.load_cache(path, KEY)
