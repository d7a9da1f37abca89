import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_manifest
from narrkit.manifest import (
    ActionRecord,
    ClipRecord,
    DatasetManifest,
    ManifestError,
    TimeInterval,
    VideoEntry,
    dumps_manifest,
    parse_manifest,
    validate_manifest,
    write_manifest,
)

LINES = [
    '{"kind": "video", "video_id": "v1", "duration_s": 100.0}',
    '{"kind": "clip", "video_id": "v1", "clip_id": "c1", "start_s": 0.0, "end_s": 10.0, "caption": "pour oil"}',
    '{"kind": "clip", "video_id": "v1", "clip_id": "c2", "start_s": 12.0, "end_s": 30.0, "caption": "chop onions"}',
    '{"kind": "action", "video_id": "v1", "start_s": 1.0, "end_s": 9.0, "description": "pour the oil"}',
]


class TestTimeInterval:
    def test_valid(self):
        assert TimeInterval(1.5, 2.0).length_s == 0.5

    @pytest.mark.parametrize(
        "start,end",
        [
            (5.0, 5.0), (5.0, 4.0), (-1.0, 2.0),
            (float("nan"), 5.0), (0.0, float("nan")), (0.0, float("inf")),
        ],
    )
    def test_invalid(self, start, end):
        with pytest.raises(ValueError):
            TimeInterval(start, end)

    def test_repr(self):
        assert repr(TimeInterval(1.5, 2.0)) == "TimeInterval(start_s=1.5, end_s=2.0)"

    def test_endpoints_are_floats(self):
        interval = TimeInterval(0, 10)
        assert (type(interval.start_s), interval.start_s) == (float, 0.0)
        assert (type(interval.end_s), interval.end_s) == (float, 10.0)

    def test_checked_as_stored(self):
        # Both ints round to the same double, as the parser reads them.
        with pytest.raises(ValueError, match="interval end must exceed start"):
            TimeInterval(2**60, 2**60 + 1)

    def test_complex_endpoint_rejected(self):
        with pytest.raises(TypeError):
            TimeInterval(1j, 5.0)

    @pytest.mark.parametrize("endpoint", ["start_s", "end_s"])
    def test_immutable(self, endpoint):
        with pytest.raises(AttributeError):
            setattr(TimeInterval(1.0, 2.0), endpoint, 3.0)

    def test_equal_intervals_compare_and_hash_alike(self):
        a, b = TimeInterval(1.0, 2.5), TimeInterval(1, 2.5)
        assert a == b and hash(a) == hash(b)
        assert a != TimeInterval(1.0, 3.0)


class TestParse:
    def test_cardinality(self):
        m = parse_manifest(LINES)
        assert m.n_videos == 1
        assert m.n_clips == 2
        assert m.n_actions == 1

    def test_empty_input(self):
        m = parse_manifest([])
        assert m == DatasetManifest()

    def test_order_insensitive(self):
        shuffled = [LINES[3], LINES[1], LINES[0], LINES[2]]
        assert parse_manifest(shuffled) == parse_manifest(LINES)

    def test_clips_sorted_by_start(self):
        swapped = [LINES[0], LINES[2], LINES[1]]
        m = parse_manifest(swapped)
        starts = [c.interval.start_s for c in m.videos["v1"].clips]
        assert starts == sorted(starts)

    def test_video_record_optional(self):
        m = parse_manifest([LINES[1]])
        assert m.videos["v1"].duration_s is None
        assert m.n_clips == 1

    def test_inverted_interval_names_clip(self):
        bad = '{"kind": "clip", "video_id": "v1", "clip_id": "cX", "start_s": 9.0, "end_s": 4.0, "caption": "x"}'
        with pytest.raises(ManifestError, match="cX") as err:
            parse_manifest([LINES[0], bad])
        assert err.value.line == 2

    def test_duplicate_clip_id(self):
        with pytest.raises(ManifestError, match="duplicate clip_id"):
            parse_manifest([LINES[1], LINES[1]])
        # the second occurrence's line, before a later bad line
        with pytest.raises(ManifestError) as err:
            parse_manifest([LINES[1], LINES[0], LINES[1], "{nope"])
        assert str(err.value) == "line 3: duplicate clip_id 'c1' in video 'v1'"

    def test_clips_sharing_a_start_keep_line_order(self):
        lines = [LINES[2].replace('"c2"', f'"{clip_id}"').replace("12.0", "0.0") for clip_id in ("c9", "c1", "c5")]
        assert [c.clip_id for c in parse_manifest(lines).videos["v1"].clips] == ["c9", "c1", "c5"]

    def test_video_entry_is_slotted(self):
        with pytest.raises(AttributeError):
            parse_manifest(LINES).videos["v1"].note = "x"

    def test_duplicate_video_record(self):
        with pytest.raises(ManifestError) as err:
            parse_manifest([LINES[1], LINES[0], LINES[0], "{nope"])
        assert str(err.value) == "line 3: duplicate video record 'v1'"

    @pytest.mark.parametrize("duration", ["0", "-1"])
    def test_non_positive_duration_rejected(self, duration):
        with pytest.raises(ManifestError) as err:
            parse_manifest([LINES[1], f'{{"kind": "video", "video_id": "v1", "duration_s": {duration}}}'])
        assert str(err.value) == "line 2: field 'duration_s' must be > 0"

    def test_action_only_video_gets_an_entry(self):
        m = DatasetManifest()
        m.actions["ghost"] = [ActionRecord("ghost", TimeInterval(0, 1), "x")]
        back = parse_manifest(dumps_manifest(m).splitlines())
        assert back.videos["ghost"] == VideoEntry()
        assert back.actions == m.actions

    def test_bad_json_carries_line_number(self):
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest([LINES[0], "{nope"])

    @pytest.mark.parametrize(
        "record,field",
        [
            ('{"kind": "clip", "video_id": "v", "clip_id": "c", "start_s": 0.0, "end_s": 1.0}', "caption"),
            ('{"kind": "clip", "video_id": "v", "clip_id": "c", "end_s": 1.0, "caption": "x"}', "start_s"),
            ('{"kind": "action", "video_id": "v", "start_s": 0.0, "end_s": 1.0}', "description"),
            ('{"kind": "wat", "video_id": "v"}', "kind"),
            ('{"kind": "video"}', "video_id"),
        ],
    )
    def test_missing_field_is_named(self, record, field):
        with pytest.raises(ManifestError, match=field):
            parse_manifest([record])

    def test_records_of_a_video_share_its_id(self, rng):
        m = parse_manifest(dumps_manifest(random_manifest(rng, n_videos=10)).splitlines())
        ids = {video_id: video_id for video_id in m.videos}
        for record in [*m.iter_clips(), *m.iter_actions()]:
            assert record.video_id is ids[record.video_id]
        assert all(video_id is ids[video_id] for video_id in m.actions)

    def test_blank_lines_skipped(self):
        assert parse_manifest(["", LINES[0], "   "]).n_videos == 1

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "overflow-float", "overflow-int"],
    )
    @pytest.mark.parametrize(
        "field,record",
        [
            ("duration_s", '{"kind": "video", "video_id": "v2", "duration_s": %s}'),
            ("start_s", '{"kind": "clip", "video_id": "v1", "clip_id": "c9", "start_s": %s, "end_s": 9.0, "caption": "x"}'),
            ("end_s", '{"kind": "clip", "video_id": "v1", "clip_id": "c9", "start_s": 1.0, "end_s": %s, "caption": "x"}'),
            ("start_s", '{"kind": "action", "video_id": "v1", "start_s": %s, "end_s": 9.0, "description": "x"}'),
            ("end_s", '{"kind": "action", "video_id": "v1", "start_s": 1.0, "end_s": %s, "description": "x"}'),
        ],
        ids=["video-duration", "clip-start", "clip-end", "action-start", "action-end"],
    )
    def test_non_finite_number_rejected(self, field, record, literal):
        with pytest.raises(ManifestError, match=f"'{field}' must be a finite number") as err:
            parse_manifest([LINES[0], record % literal])
        assert err.value.line == 2


class TestValidate:
    def test_well_formed(self):
        assert validate_manifest(parse_manifest(LINES)) == []

    def test_clip_past_duration(self):
        m = DatasetManifest()
        m.videos["v1"] = VideoEntry(
            20.0, [ClipRecord("v1", "c1", TimeInterval(0, 25), "x")]
        )
        violations = validate_manifest(m)
        assert len(violations) == 1
        v = violations[0]
        assert v.code == "clip-exceeds-duration"
        assert (v.video_id, v.clip_id) == ("v1", "c1")

    def test_reports_all_breaches(self):
        m = DatasetManifest()
        m.videos["v1"] = VideoEntry(
            5.0,
            [
                ClipRecord("v1", "c1", TimeInterval(0, 9), "  "),
                ClipRecord("v1", "c2", TimeInterval(1, 3), "ok"),
            ],
        )
        m.actions["v1"] = [ActionRecord("v1", TimeInterval(0, 1), "")]
        codes = [v.code for v in validate_manifest(m)]
        assert codes == ["empty-caption", "clip-exceeds-duration", "empty-description"]


class TestRoundTrip:
    def test_small_fixture(self):
        m = parse_manifest(LINES)
        assert parse_manifest(dumps_manifest(m).splitlines()) == m

    def test_empty_manifest(self):
        m = DatasetManifest()
        text = dumps_manifest(m)
        assert text == ""
        assert parse_manifest(text.splitlines()) == m

    def test_byte_count(self):
        m = parse_manifest(LINES)
        buf = io.StringIO()
        n = write_manifest(m, buf)
        assert n == len(buf.getvalue().encode("utf-8"))

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), np.float64("-inf")])
    def test_non_finite_duration_rejected(self, duration, tmp_path):
        # a hand-built entry; json.dumps would write NaN or Infinity, which is not JSON
        m = DatasetManifest({"v0": VideoEntry(1.0), "v1": VideoEntry(duration)})
        with pytest.raises(ValueError) as err:
            write_manifest(m, io.StringIO())
        assert str(err.value) == (
            f"video 'v1': field 'duration_s' must be a finite number, got {duration!r}"
        )
        # given a path, the bad number raises before the file is opened: no partial manifest
        path = tmp_path / "m.jsonl"
        with pytest.raises(ValueError, match="'duration_s' must be a finite number"):
            write_manifest(m, path)
        assert not path.exists()

    def test_file_sink(self, tmp_path, rng):
        m = random_manifest(rng, n_videos=10)
        path = tmp_path / "m.jsonl"
        write_manifest(m, path)
        assert parse_manifest(path) == m

    def test_precision_preserved(self):
        start, end = 0.123456789012345, 7.000000001
        m = DatasetManifest()
        m.videos["v"] = VideoEntry(None, [ClipRecord("v", "c", TimeInterval(start, end), "x")])
        back = parse_manifest(dumps_manifest(m).splitlines())
        clip = back.videos["v"].clips[0]
        assert clip.interval.start_s == start
        assert clip.interval.end_s == end

    def test_random_corpus(self, rng):
        m = random_manifest(rng, n_videos=100)
        assert parse_manifest(dumps_manifest(m).splitlines()) == m


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_roundtrip_property(seed, n):
    m = random_manifest(np.random.default_rng(seed), n_videos=n, max_clips=6, max_actions=6)
    assert parse_manifest(dumps_manifest(m).splitlines()) == m


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_parse_is_permutation_invariant(seed):
    gen = np.random.default_rng(seed)
    m = random_manifest(gen, n_videos=4, max_clips=4, max_actions=4)
    lines = dumps_manifest(m).splitlines()
    gen.shuffle(lines)
    assert parse_manifest(lines) == m


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validate_empty_on_generated(seed):
    m = random_manifest(np.random.default_rng(seed), n_videos=6)
    assert validate_manifest(m) == []
