import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_manifest
from narrkit import params, stats
from narrkit.jsonl import InputError
from narrkit.manifest import ClipRecord, DatasetManifest, TimeInterval, VideoEntry, parse_manifest
from narrkit.stats import (
    clip_length_summary,
    clips_per_video_summary,
    dataset_report,
    histogram,
    read_token_counts,
    summarize,
    word_count,
)


class TestHistogram:
    def test_hand_count(self):
        h = histogram([1, 2, 3], [0, 2, 4])
        assert h.counts == (1, 2)
        assert h.underflow == 0 and h.overflow == 0

    def test_empty_values(self):
        h = histogram([], [0, 1, 2])
        assert h.counts == (0, 0)
        assert h.total == 0

    def test_last_edge_overflows(self):
        h = histogram([4.0], [0, 2, 4])
        assert h.counts == (0, 0)
        assert h.overflow == 1

    def test_first_edge_in_first_bin(self):
        h = histogram([0.0], [0, 2, 4])
        assert h.counts == (1, 0)

    def test_underflow(self):
        h = histogram([-0.5], [0, 2, 4])
        assert h.underflow == 1

    def test_bad_edges(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            histogram([1], [0, 0, 4])
        with pytest.raises(ValueError, match="two bin edges"):
            histogram([1], [0])

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(-50, 150, allow_nan=False), max_size=200),
        seed=st.integers(0, 10_000),
    )
    def test_count_conservation(self, values, seed):
        gen = np.random.default_rng(seed)
        edges = np.cumsum(gen.uniform(0.5, 10, size=int(gen.integers(2, 10))))
        h = histogram(values, edges)
        assert h.total == len(values)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.one_of(st.floats(), st.integers(-5, 50), st.sampled_from([0, 2.5, 40])),
                        max_size=100),
        edges=st.lists(st.floats(-10, 60), min_size=2, max_size=8, unique=True).map(sorted),
    )
    def test_matches_numpy_reference(self, values, edges):
        # the numpy count it replaced: an edge opens its bin, NaN lands in overflow
        pos = np.searchsorted(np.asarray(edges), np.asarray(values, dtype=float), side="right")
        slots = np.bincount(pos, minlength=len(edges) + 1).tolist()
        h = histogram(values, edges)
        assert (h.underflow, list(h.counts), h.overflow) == (slots[0], slots[1:-1], slots[-1])
        assert h.bin_edges == tuple(float(e) for e in edges)

    def test_nan_edge_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            histogram([1], [0, float("nan"), 4])


class TestSummaries:
    def test_hand_values(self):
        s = summarize([10, 20, 30])
        assert (s.n, s.mean, s.median, s.min, s.max) == (3, 20, 20, 10, 30)

    def test_even_n_takes_lower_median(self):
        assert summarize([1, 2, 3, 4]).median == 2

    def test_singleton(self):
        s = summarize([9.5])
        assert s.mean == s.median == s.min == s.max == 9.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e300, 1e300), st.integers(-10**6, 10**6)), min_size=1))
    def test_same_bits_as_statistics(self, values):
        # the reference the module used before: fmean and median_low
        import statistics

        s = summarize(values)
        assert s.mean == statistics.fmean(values)
        assert s.median == float(statistics.median_low(values))

    @pytest.mark.parametrize(
        "values,mean",
        [
            ([1e308, 1e308], 1e308),
            ([sys.float_info.max] * 4, sys.float_info.max),
            ([sys.float_info.max, -sys.float_info.max, 1e308, 1e308, 2.0], 4e307),
        ],
        ids=["two-1e308", "four-max", "mixed-signs"],
    )
    def test_mean_of_finite_values_never_overflows(self, values, mean):
        assert summarize(values).mean == mean

    def test_permutation_invariant(self, rng):
        values = rng.uniform(0, 10, size=31).tolist()
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert summarize(values) == summarize(shuffled)


def _manifest_with_lengths(lengths_per_video):
    m = DatasetManifest()
    for i, lengths in enumerate(lengths_per_video):
        video_id = f"v{i}"
        clips = []
        pos = 0.0
        for j, length in enumerate(lengths):
            clips.append(
                ClipRecord(video_id, f"c{j}", TimeInterval(pos, pos + length), "x")
            )
            pos += length
        m.videos[video_id] = VideoEntry(None, clips)
    return m


class TestManifestSummaries:
    def test_clip_lengths(self):
        m = _manifest_with_lengths([[10, 20, 30]])
        s = clip_length_summary(m)
        assert (s.mean, s.median, s.min, s.max) == (20, 20, 10, 30)

    def test_single_clip(self):
        s = clip_length_summary(_manifest_with_lengths([[9.5]]))
        assert s.mean == s.median == 9.5

    def test_no_clips_rejected(self):
        with pytest.raises(ValueError, match="no clips"):
            clip_length_summary(DatasetManifest())

    def test_clips_per_video(self):
        m = _manifest_with_lengths([[1] * 2, [1] * 4, [1] * 6])
        assert clips_per_video_summary(m).mean == 4

    def test_single_video_single_clip(self):
        assert clips_per_video_summary(_manifest_with_lengths([[5]])).mean == 1

    def test_no_videos_rejected(self):
        with pytest.raises(ValueError, match="no videos"):
            clips_per_video_summary(DatasetManifest())

    def test_merge_of_disjoint_parts(self, rng):
        a = random_manifest(rng, n_videos=8)
        b = random_manifest(rng, n_videos=6)
        lengths_a = [c.interval.length_s for c in a.iter_clips()]
        lengths_b = [c.interval.length_s for c in b.iter_clips()]
        merged = summarize(lengths_a + lengths_b)
        sa, sb = summarize(lengths_a), summarize(lengths_b)
        assert merged.n == sa.n + sb.n
        assert merged.min == min(sa.min, sb.min)
        assert merged.max == max(sa.max, sb.max)
        assert merged.mean == pytest.approx(
            (sa.mean * sa.n + sb.mean * sb.n) / (sa.n + sb.n)
        )
        ha = histogram(lengths_a, [0, 10, 20, 40])
        hb = histogram(lengths_b, [0, 10, 20, 40])
        hm = histogram(lengths_a + lengths_b, [0, 10, 20, 40])
        assert hm.counts == tuple(x + y for x, y in zip(ha.counts, hb.counts))


class TestTextStats:
    def test_word_counts(self):
        assert word_count("stir the sauce well") == 4
        assert word_count("") == 0
        assert word_count("  padded   out  ") == 2


class TestReport:
    def test_report_sections(self, rng):
        m = random_manifest(rng, n_videos=10)
        report = dataset_report(m)
        for key in (
            "video_length_s",
            "clip_length_s",
            "clips_per_video",
            "action_words",
            "caption_words",
        ):
            section = report[key]
            hist = section["histogram"]
            total = sum(hist["counts"]) + hist["underflow"] + hist["overflow"]
            if section["summary"] is not None:
                assert total == section["summary"]["n"]
        assert report["n_videos"] == 10
        assert "action_tokens" not in report

    def test_report_token_sections(self, rng):
        m = random_manifest(rng, n_videos=4)
        report = dataset_report(
            m,
            caption_tokens=[10] * m.n_clips,
            action_tokens=[30] * m.n_actions,
        )
        assert report["caption_tokens"]["summary"]["mean"] == 10
        assert report["action_tokens"]["summary"]["mean"] == 30

    def test_custom_edges(self, rng):
        m = random_manifest(rng, n_videos=5)
        report = dataset_report(m, edges={"clip_length_s": [0.0, 50.0]})
        assert report["clip_length_s"]["histogram"]["bin_edges"] == [0.0, 50.0]


_ACTION = '{"kind": "action", "video_id": "v", "start_s": 0, "end_s": 4, "description": "y"}\n'
_TWO_CLIPS = (
    '{"kind": "video", "video_id": "v", "duration_s": 20}\n'
    '{"kind": "clip", "video_id": "v", "clip_id": "c2", "start_s": 5, "end_s": 9, "caption": "x"}\n'
    '{"kind": "clip", "video_id": "v", "clip_id": "c1", "start_s": 0, "end_s": 5, "caption": "x"}\n'
    + _ACTION + '{"kind": "video", "video_id": "w", "duration_s": 20}\n'
)


class TestReadTokenCounts:
    @pytest.fixture
    def manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(_TWO_CLIPS)
        return parse_manifest(str(path))

    def read(self, tmp_path, manifest, kind, *records):
        path = tmp_path / "tokens.jsonl"
        path.write_text("".join(f"{r}\n" for r in records))
        return read_token_counts(kind, str(path), manifest)

    def test_counts_in_manifest_order(self, tmp_path, manifest):
        # clips in start order, whatever the file's order; blank lines are skipped
        assert self.read(tmp_path, manifest, "caption", '{"video_id": "v", "clip_id": "c2", "tokens": 7}', "",
                         '{"video_id": "v", "clip_id": "c1", "tokens": 3}') == [3, 7]
        assert self.read(tmp_path, manifest, "action", f'{{"video_id": "v", "action_index": 0, "tokens": {2**53}}}'
                         ) == [2**53]

    @pytest.mark.parametrize("records,message", [
        (['{"video_id": "v", "clip_id": "c1", "tokens": 1}', '{"video_id": "v", "clip_id": "c1", "tokens": 1}'],
         "line 2: duplicate caption token count for ('v', 'c1')"),
        (['{"video_id": "v", "clip_id": "c1", "tokens": 1}'], "missing caption token count for ('v', 'c2')"),
        (['{"video_id": "v", "clip_id": "c1", "tokens": -1}'],
         "line 1: field 'tokens' must be an integer in [0, 2**53]"),
        # every line is read before any key is looked up, and each line's checks run in field order
        (['{"video_id": "v", "clip_id": "c9", "tokens": 1}', '{"video_id": "v", "clip_id": "c8", "tokens": 1.5}'],
         "line 2: field 'tokens' must be an integer"),
        (['{"video_id": "v", "clip_id": "c1", "tokens": 1}', '{"video_id": "v", "clip_id": "c1", "tokens": -1}'],
         "line 2: duplicate caption token count for ('v', 'c1')"),
        (['{"clip_id": "c1", "tokens": -1}'], "line 1: field 'video_id' must be a non-empty string"),
    ], ids=["duplicate", "missing", "range", "line-before-missing", "duplicate-before-range", "video-id-first"])
    def test_messages(self, tmp_path, manifest, records, message):
        with pytest.raises(InputError) as exc:
            self.read(tmp_path, manifest, "caption", *records)
        assert (str(exc.value), exc.value.source) == (message, str(tmp_path / "tokens.jsonl"))

    def test_action_keys(self, tmp_path, manifest):
        with pytest.raises(InputError, match=r"^missing action token count for \('v', 0\)$"):
            self.read(tmp_path, manifest, "action", '{"video_id": "v", "action_index": 1, "tokens": 1}')

    def test_nothing_to_profile(self, tmp_path):
        # a manifest with no actions has no action counts to profile, even from an empty file
        path = tmp_path / "m.jsonl"
        path.write_text(_TWO_CLIPS.replace(_ACTION, ""))
        with pytest.raises(InputError, match=r"^no records to profile$"):
            self.read(tmp_path, parse_manifest(str(path)), "action")


def test_settings_take_their_defaults():
    assert (params.check_context_length(), params.check_threads()) == (2, 1)
    assert (params.check_context_length(3), params.check_threads(4)) == (3, 4)
    # stats re-exports the edges that params owns
    assert (stats.check_edges, stats.DEFAULT_EDGES) == (params.check_edges, params.DEFAULT_EDGES)
