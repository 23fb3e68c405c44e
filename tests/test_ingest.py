import dataclasses
import gzip
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netreplay import ingest
from netreplay.ingest import ArrivalStream, FormatOptions, RawEvent, StreamFormatError

KEY = (0, 123, 456)  # a cache_key as if from a real input file


def to_events(stream):
    """Render a stream back to raw events that normalize to it: links as
    first discoveries, loop-only nodes as loops in discovery order."""
    u, v, time, prefix = (
        a.tolist() for a in (stream.u, stream.v, stream.time, stream.node_count_prefix)
    )
    if not u:
        return [RawEvent(0, str(x), str(x)) for x in range(stream.final_n)]
    seen = ingest.leading_discoveries(stream)
    events = [RawEvent(time[0], str(x), str(x)) for x in range(seen)]
    for a, b, t, count in zip(u, v, time, prefix):
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


def read_until_error(reader):
    """Events parsed before an unreadable stretch, and the error's message."""
    events = []
    with pytest.raises(StreamFormatError, match="unreadable input after line") as info:
        for ev in ingest.parse_event_stream(reader):
            events.append(ev)
    return events, str(info.value)


def parse_lines(text, **opts):
    return list(ingest.parse_event_stream(io.StringIO(text), FormatOptions(**opts)))


class TestParse:
    def test_basic_lines(self):
        events = parse_lines("0 a b\n5 b c\n")
        assert events == [RawEvent(0, "a", "b"), RawEvent(5, "b", "c")]

    def test_blank_and_comment_lines_skipped(self):
        events = parse_lines("# header\n\n1 x y\n   \n2 y z\n")
        assert [e.time for e in events] == [1, 2]

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            parse_lines("1 a b\n2 a\n")

    def test_bad_timestamp_reports_line_number(self):
        with pytest.raises(StreamFormatError, match="line 1"):
            parse_lines("notatime a b\n")

    def test_negative_timestamp_rejected(self):
        with pytest.raises(StreamFormatError, match="line 1"):
            parse_lines("-3 a b\n")

    def test_timestamp_beyond_u64_rejected(self):
        with pytest.raises(StreamFormatError, match="line 2"):
            parse_lines("1 a b\n18446744073709551616 b c\n")

    def test_largest_u64_timestamp_allowed(self):
        events = parse_lines("1 a b\n18446744073709551615 b c\n")
        assert ingest.normalize(events).time.tolist() == [1, 2**64 - 1]

    def test_decreasing_timestamp_reports_line_number(self):
        with pytest.raises(StreamFormatError, match="timestamp decreases at line 2"):
            parse_lines("5 a b\n4 b c\n")

    def test_equal_timestamps_allowed(self):
        assert len(parse_lines("7 a b\n7 c d\n")) == 2

    def test_no_time_mode_synthesizes_order(self):
        events = parse_lines("a b\nb c\n", no_time=True)
        assert [(e.time, e.src, e.dst) for e in events] == [(0, "a", "b"), (1, "b", "c")]

    def test_no_time_mode_rejects_three_fields(self):
        with pytest.raises(StreamFormatError, match="line 1"):
            parse_lines("1 a b\n", no_time=True)

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "trace.txt.gz"
        with gzip.open(path, "wt") as f:
            f.write("0 a b\n1 b c\n")
        with ingest.open_event_file(str(path)) as f:
            events = list(ingest.parse_event_stream(f))
        assert len(events) == 2 and events[1].dst == "c"

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda gz: gz[: len(gz) // 2], id="truncated"),
            pytest.param(lambda gz: gz[:3] + b"\xff" + gz[4:], id="bad-header-flags"),
            pytest.param(lambda gz: gz[:-5] + bytes([gz[-5] ^ 0xFF]) + gz[-4:], id="bad-crc"),
        ],
    )
    def test_unreadable_gzip_names_last_whole_line(self, tmp_path, corrupt):
        path = tmp_path / "trace.txt.gz"
        path.write_bytes(corrupt(gzip.compress(numbered_trace())))
        with ingest.open_event_file(str(path)) as f:
            events, message = read_until_error(f)
        assert f"after line {len(events)}:" in message
        assert [e.time for e in events] == list(range(len(events)))

    def test_non_utf8_byte_names_last_whole_line(self, tmp_path):
        # The error names the line holding the byte, and every line before
        # it was read whole, however the decoder chunks the file.
        good = numbered_trace()
        cut = good.index(b"\n", len(good) // 2) + 1  # start of a line past the middle
        bad_line = good[:cut].count(b"\n") + 1
        bad = good[:cut] + b"\xff" + good[cut:]
        for name, payload in (("trace.txt", bad), ("trace.txt.gz", gzip.compress(bad))):
            path = tmp_path / name
            path.write_bytes(payload)
            events = []
            with ingest.open_event_file(str(path)) as f:
                with pytest.raises(StreamFormatError) as info:
                    for ev in ingest.parse_event_stream(f):
                        events.append(ev)
            assert str(info.value) == f"line {bad_line} is not valid utf-8"
            assert [e.time for e in events] == list(range(bad_line - 1))

    def test_valid_non_ascii_tokens_accepted(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 caf\u00e9 na\u00efve\n1 na\u00efve \u00fcber\n", encoding="utf-8")
        with ingest.open_event_file(str(path)) as f:
            events = list(ingest.parse_event_stream(f))
        assert [(e.src, e.dst) for e in events] == [
            ("caf\u00e9", "na\u00efve"), ("na\u00efve", "\u00fcber")
        ]


class TestNormalize:
    def test_two_links_four_nodes(self):
        s = ingest.normalize([RawEvent(1, "a", "b"), RawEvent(2, "c", "d")])
        assert s.final_n == 4 and s.final_m == 2
        assert s.node_count_prefix.tolist() == [2, 4]
        assert s.u.tolist() == [0, 2] and s.v.tolist() == [1, 3]

    def test_duplicate_and_loop_dropped(self):
        s = ingest.normalize(
            [RawEvent(1, "a", "b"), RawEvent(2, "b", "a"), RawEvent(3, "a", "a")]
        )
        assert s.final_n == 2 and s.final_m == 1
        assert s.node_count_prefix.tolist() == [2]

    def test_loop_discovers_node(self):
        s = ingest.normalize(
            [RawEvent(1, "a", "b"), RawEvent(2, "e", "e"), RawEvent(3, "a", "d")]
        )
        assert s.final_n == 4 and s.final_m == 2
        # node e is counted before the second surviving link
        assert s.node_count_prefix.tolist() == [3, 4]

    def test_first_appearance_indexing(self):
        s = ingest.normalize([RawEvent(0, "z", "q"), RawEvent(1, "q", "a")])
        assert s.u.tolist() == [0, 1] and s.v.tolist() == [1, 2]

    def test_all_loops_stream(self):
        s = ingest.normalize([RawEvent(0, "a", "a"), RawEvent(1, "b", "b")])
        assert s.final_n == 2 and s.final_m == 0
        assert s.n_events == 0

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
        s = ingest.normalize(events)

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
        s = ingest.normalize(events)
        prefix = s.node_count_prefix
        assert np.all(np.diff(prefix) >= 0)
        assert prefix[-1] == s.final_n
        # every event's endpoints are discovered by its own prefix entry
        assert np.all(prefix >= np.maximum(s.u, s.v) + 1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=60
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_through_rendered_events(self, pairs):
        events = [RawEvent(i, str(a), str(b)) for i, (a, b) in enumerate(pairs)]
        s = ingest.normalize(events)
        s2 = ingest.normalize(to_events(s))
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
        return ingest.normalize([RawEvent(1, "a", "b"), RawEvent(2, "c", "d")])

    def test_exact_target(self):
        assert ingest.checkpoint_plan(self.stream(), (2, 4)) == [(0, 2, 1, 2), (1, 4, 2, 4)]

    def test_overshoot_recorded(self):
        s = ingest.normalize(
            [RawEvent(1, "a", "b"), RawEvent(2, "c", "d"), RawEvent(3, "d", "a")]
        )
        # c-d reveals the third and fourth node at once; the last target takes the
        # whole stream though it adds no node
        assert ingest.checkpoint_plan(s, (3, 4)) == [(0, 3, 2, 4), (1, 4, 3, 4)]

    def test_swallowed_target_dropped(self):
        s = ingest.normalize(
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
        s = ingest.normalize(
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
        s = ingest.normalize(
            [RawEvent(0, "a", "b"), RawEvent(1, "x", "x"), RawEvent(2, "c", "a")]
        )
        # target 3 is reached by the loop discovery, before c-a
        assert ingest.checkpoint_plan(s, (3, 4)) == [(0, 3, 1, 3), (1, 4, 2, 4)]

    def test_targets_before_first_link(self):
        s = ingest.normalize(
            [RawEvent(0, "x", "x"), RawEvent(1, "y", "y"), RawEvent(2, "a", "y")]
        )
        # two nodes exist before any link arrives
        assert ingest.checkpoint_plan(s, (1, 2, 3)) == [
            (0, 1, 0, 1), (1, 2, 0, 2), (2, 3, 1, 3)
        ]

    def test_all_loop_stream(self):
        s = ingest.normalize([RawEvent(0, "x", "x"), RawEvent(1, "y", "y")])
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
        s = ingest.normalize(events)
        assume(s.final_n >= 1)
        sizes = sorted(data.draw(st.sets(st.integers(1, s.final_n), min_size=1)))
        # A stream does not record whether the first link's lower endpoint
        # was discovered by an earlier loop ("x x" then "x y" normalizes like
        # "x y" alone), so the reference walks the stream's own rendering.
        assert ingest.checkpoint_plan(s, sizes) == reference_plan(to_events(s), sizes)


class TestSchedule:
    def test_even_thousand(self):
        sched = ingest.checkpoint_sizes(1000, 100)
        assert sched.sizes[:3] == (10, 20, 30)
        assert sched.sizes[-1] == 1000
        assert len(sched.sizes) == 100

    def test_tiny_stream_dedups(self):
        assert ingest.checkpoint_sizes(3, 100).sizes == (1, 2, 3)

    def test_round_half_up(self):
        assert ingest.checkpoint_sizes(7, 2).sizes == (4, 7)

    def test_strictly_increasing_and_capped(self):
        for n in (1, 2, 17, 99, 100, 101, 12345):
            sizes = ingest.checkpoint_sizes(n, 100).sizes
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
        s = ingest.normalize(
            [RawEvent(0, "a", "b"), RawEvent(3, "b", "c"), RawEvent(9, "c", "d")]
        )
        self.roundtrip(s, tmp_path)

    def test_roundtrip_with_loop_only_nodes(self, tmp_path):
        s = ingest.normalize(
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
        s = ingest.normalize([RawEvent(0, "a", "a")])
        self.roundtrip(s, tmp_path)

    def test_roundtrip_large_random(self, tmp_path):
        rng = np.random.default_rng(9)
        events = [
            RawEvent(i, str(int(a)), str(int(b)))
            for i, (a, b) in enumerate(rng.integers(0, 500, size=(5000, 2)))
        ]
        self.roundtrip(ingest.normalize(events), tmp_path)

    def test_roundtrip_times_beyond_int64(self, tmp_path):
        s = ingest.normalize([RawEvent(1, "a", "b"), RawEvent(2**63 + 5, "b", "c")])
        self.roundtrip(s, tmp_path)

    def test_other_key_rejected(self, tmp_path):
        s = ingest.normalize([RawEvent(0, "a", "b")])
        path = str(tmp_path / "keyed.arrivals")
        ingest.save_cache(s, path, KEY)
        for other in [(1, 123, 456), (0, 124, 456), (0, 123, 457)]:
            with pytest.raises(ValueError, match="another input or format"):
                ingest.load_cache(path, other)

    def test_write_goes_through_a_unique_temporary_file(self, tmp_path):
        s = ingest.normalize([RawEvent(0, "a", "b")])
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
        s = ingest.normalize([RawEvent(0, "a", "b"), RawEvent(1, "b", "c")])
        path = str(tmp_path / "trunc.arrivals")
        ingest.save_cache(s, path, KEY)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            ingest.load_cache(path, KEY)


# Times that exercise equal stamps and the int64/uint64 boundary.
EVENT_TIMES = st.one_of(
    st.integers(0, 3), st.integers(2**63 - 2, 2**63 + 2), st.just(2**64 - 1)
)

# Links (0,1), (1,3), (3,0) with loop-only node x = 2 between the first two:
# u = [0, 1, 3], v = [1, 3, 0], time = [1, 3, 5], node_count_prefix = [3, 4, 4].
SMALL = [
    RawEvent(1, "a", "b"), RawEvent(2, "x", "x"), RawEvent(3, "b", "c"), RawEvent(5, "c", "a")
]
HEADER_BYTES = 8 + 5 * 8  # magic, final_n, final_m, the three key fields


def edited_sidecar(tmp_path, stream, field, index, value):
    """Save ``stream``, overwrite entry ``index`` of one stored field
    (``final_n`` or a column) with ``value``, and return the sidecar's path."""
    path = str(tmp_path / "edited.arrivals")
    ingest.save_cache(stream, path, KEY)
    data = bytearray(open(path, "rb").read())
    m = stream.final_m
    views = {"final_n": np.frombuffer(data, "<u8", 1, 8)}
    offset = HEADER_BYTES
    for name, dtype in [("u", "<i4"), ("v", "<i4"), ("time", "<u8"), ("prefix", "<i8")]:
        views[name] = np.frombuffer(data, dtype, m, offset)
        offset += m * np.dtype(dtype).itemsize
    views[field][index] = value
    with open(path, "wb") as f:
        f.write(data)
    return path


class TestCacheFormat:
    def test_on_disk_layout_is_pinned(self, tmp_path):
        # A change to these bytes is a format change: bump CACHE_MAGIC with it.
        path = str(tmp_path / "small.arrivals")
        ingest.save_cache(ingest.normalize(SMALL), path, KEY)
        expected = bytes.fromhex(
            "4e525354524d3033"  # magic "NRSTRM03"
            "0400000000000000"  # final_n = 4
            "0300000000000000"  # final_m = 3
            "0000000000000000"  # key: no_time = 0
            "7b00000000000000"  # key: input size = 123
            "c801000000000000"  # key: mtime_ns = 456
            "00000000" "01000000" "03000000"  # u, i4
            "01000000" "03000000" "00000000"  # v, i4
            "0100000000000000" "0300000000000000" "0500000000000000"  # time, u8
            "0300000000000000" "0400000000000000" "0400000000000000"  # node_count_prefix, i8
        )
        assert open(path, "rb").read() == expected

    @given(
        st.lists(
            st.tuples(EVENT_TIMES, st.integers(0, 9), st.integers(0, 9)), max_size=60
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_file_roundtrip_equals_normalize(self, draws):
        times = sorted(t for t, _, _ in draws)
        events = [RawEvent(t, str(a), str(b)) for t, (_, a, b) in zip(times, draws)]
        stream = ingest.normalize(events)
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
        stream = ingest.normalize(
            [RawEvent(i, str(a), str(b)) for i, (a, b) in enumerate(pairs)]
        )
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.arrivals")
            ingest.save_cache(stream, path, KEY)
            raw = bytearray(open(path, "rb").read())
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
        assert np.all(np.diff(s.node_count_prefix) >= 0)
        assert np.all(s.node_count_prefix > np.maximum(s.u, s.v))
        assert s.final_m == 0 or s.node_count_prefix[-1] == s.final_n

    def test_every_truncation_rejected(self, tmp_path):
        path = str(tmp_path / "small.arrivals")
        ingest.save_cache(ingest.normalize(SMALL), path, KEY)
        data = open(path, "rb").read()
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
            # [5, 4, 4] still covers every endpoint and ends at final_n
            ("prefix", 0, 5, "decrease"),
            # [1, 4, 4] is non-decreasing, but link (0, 1) needs two nodes
            ("prefix", 0, 1, "below"),
            ("final_n", 0, 5, "node count mismatch"),
        ],
    )
    def test_broken_invariant_rejected(self, tmp_path, field, index, value, message):
        path = edited_sidecar(tmp_path, ingest.normalize(SMALL), field, index, value)
        with pytest.raises(ValueError, match=message):
            ingest.load_cache(path, KEY)

    def test_node_count_beyond_int32_rejected_without_links(self, tmp_path):
        stream = ingest.normalize([RawEvent(0, "a", "a")])
        path = edited_sidecar(tmp_path, stream, "final_n", 0, 2**31)
        with pytest.raises(ValueError, match="node count mismatch"):
            ingest.load_cache(path, KEY)
