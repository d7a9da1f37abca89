"""Every record writer writes, line for line, what ``json.dumps`` writes for its record.

The manifest and match-record writers build their lines from
``jsonl.encode_str`` and ``jsonl.encode_number``; the window and assignment
writers dump a dict. The references below build each record as a dict and
dump it.
"""

import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from narrkit import cli
from narrkit.context import NarrativeSequence, StepRecord, build_windows, export_windows
from narrkit.jsonl import encode_number
from narrkit.manifest import (ActionRecord, ClipRecord, DatasetManifest, TimeInterval, VideoEntry,
                             parse_manifest, write_manifest)
from narrkit.matching import (FilterPolicy, MatchRecord, MatchRule, filter_matched, format_match_record,
                              parse_match_records)

# Non-ASCII, control characters, U+2028, and the lone surrogates that text
# read with jsonl.TEXT holds for bytes that are not UTF-8.
texts = st.text(st.one_of(
    st.characters(), st.sampled_from([" ", " ", "\x00", "\x1f", "\x7f", '"', "\\", "é", "\U0001f373",
                                      "\udc80", "\udcff"]),
), max_size=8)
ids = texts.filter(bool)
floats = st.one_of(
    st.floats(min_value=0, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, 2.5e15]),
)
numbers = st.one_of(
    floats, floats.map(np.float64), st.integers(0, 2**70),
)


@st.composite
def intervals(draw):
    start = draw(numbers)
    # compared as TimeInterval stores them: two integers past 2**53 may round to one float
    end = draw(st.one_of(numbers, st.just(float(start) + 1)).filter(lambda end: float(end) > float(start)))
    return TimeInterval(start, end)


@st.composite
def manifests(draw):
    m = DatasetManifest()
    for video_id in draw(st.lists(ids, max_size=3, unique=True)):
        if draw(st.booleans()):
            duration = draw(st.one_of(st.none(), numbers))
            clips = [ClipRecord(video_id, clip_id, draw(intervals()), draw(texts))
                     for clip_id in draw(st.lists(ids, max_size=3))]
            m.videos[video_id] = VideoEntry(duration, clips)
        if draw(st.booleans()):
            m.actions[video_id] = [ActionRecord(video_id, draw(intervals()), draw(texts))
                                   for _ in range(draw(st.integers(0, 3)))]
    return m


def manifest_records(m):
    for video_id in sorted(set(m.videos) | set(m.actions)):
        entry = m.videos.get(video_id)
        if entry is not None:
            rec = {"kind": "video", "video_id": video_id}
            if entry.duration_s is not None:
                rec["duration_s"] = entry.duration_s
            yield rec
            for clip in entry.clips:
                yield {"kind": "clip", "video_id": video_id, "clip_id": clip.clip_id,
                       "start_s": clip.interval.start_s, "end_s": clip.interval.end_s,
                       "caption": clip.caption}
        for action in m.actions.get(video_id, []):
            yield {"kind": "action", "video_id": video_id, "start_s": action.interval.start_s,
                   "end_s": action.interval.end_s, "description": action.description}


def dumped(records):
    return "".join(json.dumps(rec) + "\n" for rec in records)


@settings(max_examples=100, deadline=None)
@given(manifests())
def test_manifest_lines_match_json_dumps(m):
    buf = io.StringIO()
    written = write_manifest(m, buf)
    assert buf.getvalue() == dumped(manifest_records(m))
    assert written == len(buf.getvalue().encode("utf-8"))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 7), st.data())
def test_window_lines_match_json_dumps(k, extra, data):
    steps = [StepRecord(i, data.draw(texts), data.draw(texts), data.draw(ids), data.draw(ids))
             for i in range(1, 2 * k + extra + 1)]
    seq = NarrativeSequence(data.draw(ids), steps)
    windows = build_windows(seq, k)
    expected = [
        {"sequence_id": seq.sequence_id, "window_index": w.window_index, "k": w.k,
         "ref_step_indices": list(w.ref_step_indices),
         "target_step_indices": list(w.target_step_indices), "tiled_caption": w.tiled_caption,
         "embedding_ids": list(w.reference_embeddings + w.target_embeddings), "partial": w.partial}
        for w in windows
    ]
    assert "".join(line + "\n" for line in export_windows(seq, windows)) == dumped(expected)


@settings(max_examples=200, deadline=None)
@given(ids, ids, st.integers(0, 2**40), floats, floats, st.sampled_from(MatchRule))
def test_match_line_quotes_ids_as_json_dumps(video_id, clip_id, index, iou, diff, rule):
    rec = MatchRecord(video_id, clip_id, index, iou, diff, rule)
    assert format_match_record(rec) == (
        f'{{"video_id": {json.dumps(video_id)}, "clip_id": {json.dumps(clip_id)}, '
        f'"action_index": {index}, "iou": {iou:.9f}, "start_diff_s": {diff:.9f}, '
        f'"rule": "{rule.value}"}}'
    )


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(ids, ids), min_size=1, max_size=4, unique=True), st.sampled_from(["best", "all"]))
def test_assignment_lines_match_json_dumps(clips, policy):
    # every clip [0, 10) against two actions that both match it
    m = DatasetManifest()
    for video_id, clip_id in clips:
        m.videos.setdefault(video_id, VideoEntry()).clips.append(
            ClipRecord(video_id, clip_id, TimeInterval(0.0, 10.0), "c"))
        m.actions[video_id] = [ActionRecord(video_id, TimeInterval(0.0, 9.0), "a"),
                               ActionRecord(video_id, TimeInterval(1.0, 10.0), "b")]
    with tempfile.TemporaryDirectory() as root:
        paths = {name: os.path.join(root, name) for name in ("m", "matches", "out", "assign")}
        write_manifest(m, paths["m"])
        assert cli.run(["match", "--manifest", paths["m"], "--out", paths["matches"]]) == 0
        assert cli.run(["filter", "--manifest", paths["m"], "--matches", paths["matches"],
                        "--policy", policy, "--out", paths["out"], "--assignment", paths["assign"]]) == 0
        with open(paths["matches"], encoding="utf-8") as fh:  # the CLI's manifest has its videos sorted
            result = filter_matched(parse_manifest(paths["m"]), list(parse_match_records(fh)),
                                    FilterPolicy(policy))
        with open(paths["assign"], encoding="utf-8") as fh:
            written = fh.read()
    expected = [{"video_id": v, "clip_id": c, "action_indices": indices}
                for (v, c), indices in result.assignment.items()]
    assert written == dumped(expected)


class Count(int):
    def __repr__(self):
        return "Count()"


class Seconds(float):
    def __repr__(self):
        return "Seconds()"


def test_number_follows_json_dumps():
    values = (0, -0.0, 5e-324, 1e16, 1e22, 2**64, np.float64(1.5), np.float64(-0.0), Count(3), Seconds(2.5))
    for value in values:
        assert encode_number(value, "x") == json.dumps(value)
