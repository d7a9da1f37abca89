"""Memory guards for the embedding kernels and I/O, and for the record readers.

numpy reports its data buffers to tracemalloc, so a traced peak counts every
array a call allocates, exactly and repeatably. Each bound is in units of
S, the byte size of the float32 input set, and sits between what one stored
copy per set costs and what an extra whole-set copy would add; a call whose
working memory does not grow with the set is bounded in blocks of rows or in
dimension × dimension matrices instead.

The corpus commands' guards check that each consumes its records as they
arrive: ``filter`` holds no match record past its line, no rank tuple in its
fold and no assignment line past its video, ``match`` no video's records past
that video, ``windows`` no window past its sequence, and ``stats`` no token
file's keys past that file, nor more than one table entry a line while reading
it. ``parse_manifest`` keeps little beyond the manifest it returns.

The readers' guards compare the bytes their records keep alive with the same
records rebuilt in place two ways, on the same interpreter: with an instance
dict each, and with one copy of the video id each. The readers must keep less
than both, so the guards hold whatever the interpreter's object layout.

Every guard traces with the cyclic collector off, as ``narrkit.cli.main``
runs: a collection that fires mid-trace, freeing garbage of earlier tests or
not, moves a peak by more than some bounds allow.
"""

import contextlib
import gc
import io
import json
import os
import struct
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import asdict, fields, make_dataclass, replace

import numpy as np
import pytest

from conftest import random_manifest, random_sequence
from narrkit import embedcore
from narrkit import manifest as manifest_module
from narrkit.cli import run
from narrkit.embedcore import (_BLOCK, EmbeddingSet, PerturbationSpec, clip_t_score, fit_moments, flow_loss,
                               perturb_set, population_std, regression_loss)
from narrkit.embedio import open_embeddings, read_embeddings, write_embeddings
from narrkit.context import read_step_sequences
from narrkit.manifest import ActionRecord, ClipRecord, DatasetManifest, dumps_manifest, parse_manifest
from narrkit.matching import (FilterPolicy, MatchRecord, _fold_matches, format_match_record, match_dataset,
                              parse_match_records)
from narrkit.stats import read_token_counts

N, DIM = 4000, 256
S = N * DIM * 4


@pytest.fixture(scope="module")
def es():
    return EmbeddingSet(np.random.default_rng(7).normal(size=(N, DIM)).astype(np.float32))


@contextlib.contextmanager
def tracing():
    """Trace allocations in the block with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()


def traced_memory(fn, *args):
    """(retained, peak): bytes traced when fn(*args) returns, its result alive, and at most."""
    with tracing():
        result = fn(*args)  # alive while the sizes are read
        return tracemalloc.get_traced_memory()


def traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs; its result is still alive at the peak."""
    return traced_memory(fn, *args)[1]


def traced_retained(fn, *args):
    """Bytes still traced when fn(*args) returns, its result alive."""
    return traced_memory(fn, *args)[0]


@pytest.fixture(scope="module")
def manifest_lines():
    return dumps_manifest(random_manifest(np.random.default_rng(11), n_videos=300)).splitlines()


def test_binary_read_holds_one_copy(es, tmp_path):
    path = tmp_path / "x.emb"
    write_embeddings(es, path)
    assert traced_peak(read_embeddings, path) <= 1.5 * S


def test_jsonl_read_holds_one_copy(es, tmp_path):
    # One float32 array for every row; a float32 array per row, stacked, took 2.2 S.
    path = tmp_path / "x.jsonl"
    write_embeddings(es, path, fmt="jsonl")
    assert traced_peak(read_embeddings, path) <= 1.3 * S


def test_binary_write_copies_nothing(es, tmp_path):
    assert traced_peak(write_embeddings, es, tmp_path / "x.emb") <= 0.25 * S


def test_population_std_upcasts_column_strips(es):
    assert traced_peak(population_std, es) <= S  # a whole float64 copy is 2 S


def test_fit_moments_upcasts_bounded_blocks(es):
    assert traced_peak(fit_moments, es) <= S


def test_frechet_command_holds_one_set(es, tmp_path, capsys):
    # One stored set, one fit's blocks and the first set's moments: about 1.9 S.
    # Holding both sets, or a float64 copy of one, would take 2.7 S or more.
    a, b = tmp_path / "a.emb", tmp_path / "b.emb"
    write_embeddings(es, a)
    write_embeddings(EmbeddingSet(np.random.default_rng(8).normal(size=(N, DIM)).astype(np.float32)), b)
    argv = ["metrics", "frechet", "--a", str(a), "--b", str(b)]
    run(argv)  # load the command's modules before tracing
    assert traced_peak(run, argv) <= 2.4 * S
    assert capsys.readouterr().err == ""


def test_frechet_body_holds_four_matrices():
    # Counting the two fitted covariances, at most four d×d float64 matrices are alive
    # at once: the body jitters the covariances in place and frees each matrix after its
    # last use. Adding jitter * eye to copies of them held eight.
    rng = np.random.default_rng(5)
    with tracing():
        moments = [fit_moments(rng.normal(size=(2 * DIM, DIM))) for _ in range(2)]
        tracemalloc.reset_peak()  # from here on, the moments and what the body adds
        embedcore._frechet(moments, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    assert peak <= 4.1 * DIM * DIM * 8
    assert moments == []  # consumed


@pytest.mark.parametrize("mode", ["coords", "sequence"])
def test_perturb_set_writes_rows_in_place(es, mode):
    assert traced_peak(perturb_set, es, np.ones(DIM), PerturbationSpec(seed=3), mode) <= 1.5 * S


@pytest.mark.parametrize("kernel", [regression_loss, flow_loss, clip_t_score])
def test_pair_kernels_upcast_bounded_blocks(es, kernel):
    other = EmbeddingSet(np.random.default_rng(8).normal(size=(N, DIM)).astype(np.float32))
    assert traced_peak(kernel, es, other) <= 2 * S


GROWTH_N = 2 * _BLOCK
GROWTH_S = GROWTH_N * DIM * 4


@pytest.fixture(scope="module")
def sized_sets(tmp_path_factory):
    """Pairs of binary sets of 2 and 8 blocks' rows, by row count, and the same
    pairs as JSONL without ids at the same paths plus ``.jsonl``."""
    d, rng = tmp_path_factory.mktemp("sized"), np.random.default_rng(9)
    paths = {}
    for n in (GROWTH_N, 4 * GROWTH_N):
        paths[n] = [str(d / f"{name}{n}.emb") for name in "ab"]
        for path in paths[n]:
            es = EmbeddingSet(rng.normal(size=(n, DIM)).astype(np.float32))
            write_embeddings(es, path)
            write_embeddings(es, path + ".jsonl", fmt="jsonl")
    return paths


@pytest.mark.parametrize("argv,output", [
    (["metrics", "regloss", "--pred", "{a}", "--target", "{b}"], 0),
    (["metrics", "frechet", "--a", "{a}", "--b", "{b}"], 0),
    (["metrics", "clipt", "--text", "{a}.jsonl", "--image", "{b}.jsonl"], 0),
    (["perturb", "--in", "{a}", "--threads", "1"], 0),
], ids=["regloss", "frechet", "clipt-jsonl", "perturb"])
def test_command_peak_does_not_grow_with_its_inputs(sized_sets, tmp_path, argv, output):
    # Each set is read block by block, a JSONL set from the binary file it is decoded
    # into, and perturb writes each output block into the file as it is made: from N
    # to 4N rows, the traced peak grows by less than 0.1 S beyond what the output holds
    # in memory (nothing, for every command). Holding an input set whole would add
    # 3 S, and a float64 copy of one 6 S.
    peaks = []
    for n, (a, b) in sorted(sized_sets.items()):
        command = [arg.format(a=a, b=b) for arg in argv] + ["--out", str(tmp_path / "out")]
        run(command)  # load the command's modules before tracing
        peaks.append(traced_peak(run, command))
    assert peaks[1] - peaks[0] - output * GROWTH_S < 0.1 * GROWTH_S


@pytest.mark.parametrize("mode", ["coords", "sequence"])
def test_perturb_command_holds_a_few_blocks(sized_sets, tmp_path, mode):
    # On a set of 8 blocks, the std basis pass holds a float64 block's buffer and two
    # float32 blocks, about two float64 blocks; the rows, up to three float32 blocks.
    # Holding the output, as the whole 8-block set, would add four float64 blocks.
    block64 = _BLOCK * DIM * 8
    argv = ["perturb", "--in", sized_sets[4 * GROWTH_N][0], "--shuffle-mode", mode, "--out", str(tmp_path / "o")]
    run(argv)  # load the command's modules before tracing
    assert traced_peak(run, argv) <= 2.5 * block64


BLOCK64 = _BLOCK * DIM * 8  # one float64 block of rows; a stored float32 block is half of it


@pytest.mark.parametrize("kernel", [regression_loss, flow_loss, clip_t_score])
def test_pair_kernels_hold_one_stored_block_pair(sized_sets, kernel):
    # The two float64 buffers, and then either the next stored float32 pair or the
    # kernel's float64 temporary: about 3 blocks. Keeping the previous stored pair
    # alive while the next is read took 4.2.
    a, b = sized_sets[4 * GROWTH_N]
    with open_embeddings(a) as x, open_embeddings(b) as y:
        assert traced_peak(kernel, x, y) <= 3.3 * BLOCK64


def test_population_std_holds_one_stored_block(sized_sets):
    # The float64 buffer and one stored float32 block: 1.63 blocks; 2.13 with the
    # previous stored block still alive while the next is read.
    with open_embeddings(sized_sets[4 * GROWTH_N][0]) as x:
        assert traced_peak(population_std, x) <= 1.8 * BLOCK64


@pytest.mark.parametrize("mode", ["coords", "sequence"])
def test_perturb_rows_hold_one_input_block(sized_sets, mode):
    # One float32 output block and one stored input block, about 1.1 to 1.3 float64
    # blocks; a row view of the last input block, left alive while the next block is
    # read, added half a block.
    with open_embeddings(sized_sets[4 * GROWTH_N][0]) as x, tempfile.TemporaryFile() as out:
        perturb = embedcore._perturb_into
        assert traced_peak(perturb, out.fileno(), 0, x, np.ones(DIM), PerturbationSpec(seed=3), mode) <= 1.4 * BLOCK64


def test_piped_set_is_not_held_in_memory(es):
    # A pipe is copied into an anonymous file, 64 KiB at a time, and read from there:
    # opening it and reading its shape traces about 0.04 S. Holding its bytes took 1 S.
    blob = io.BytesIO()
    write_embeddings(es, blob)
    blob = blob.getvalue()
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as fh:
            fh.write(blob)

    def shape():
        with os.fdopen(r, "rb") as fh, open_embeddings(fh) as x:
            return x.shape

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        peak = traced_peak(shape)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert peak < 0.25 * S


def test_filter_peak_does_not_grow_with_repeated_matches(manifest_lines, tmp_path):
    # Every matched clip gets 4x as many valid match lines, each line repeated; the
    # output is the same. Folded as they are read, the lines leave nothing behind:
    # holding each one's record took about 190 bytes a line, and any per-line
    # retention costs at least a pointer.
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(line + "\n" for line in manifest_lines))
    lines = [format_match_record(r) for r in match_dataset(parse_manifest(manifest_lines))]
    peaks, outputs = [], []
    for repeat in (1, 4):
        matches = tmp_path / f"matches{repeat}.jsonl"
        matches.write_text("".join(line + "\n" for line in lines for _ in range(repeat)))
        out, assignment = tmp_path / f"out{repeat}", tmp_path / f"assignment{repeat}"
        argv = ["filter", "--manifest", str(manifest), "--matches", str(matches), "--policy", "best",
                "--out", str(out), "--assignment", str(assignment)]
        run(argv)  # load the command's modules before tracing
        peaks.append(traced_peak(run, argv))
        outputs.append((out.read_bytes(), assignment.read_bytes()))
    assert outputs[0] == outputs[1]
    assert peaks[1] - peaks[0] < struct.calcsize("P") * 3 * len(lines)


@pytest.fixture
def parsed_bytes(monkeypatch):
    """Bytes traced once each parse_manifest call returns, which resets the traced peak."""
    parse, parsed = manifest_module.parse_manifest, []

    def parse_then_reset_peak(source):
        result = parse(source)
        tracemalloc.reset_peak()  # parsing's own temporaries are not the command's
        parsed.append(tracemalloc.get_traced_memory()[0])
        return result

    monkeypatch.setattr(manifest_module, "parse_manifest", parse_then_reset_peak)
    return parsed


def test_match_command_holds_one_video_of_records(tmp_path, parsed_bytes):
    # Past the parsed manifest, match holds the records of the video it is
    # writing: about 1.1 times the largest video's. Holding every video's, as a
    # list for the whole corpus, took 3.9 times; the previous video's alive while
    # the next is matched, 1.6.
    m = random_manifest(np.random.default_rng(12), n_videos=8, max_clips=200, max_actions=200)
    path = tmp_path / "m.jsonl"
    path.write_text(dumps_manifest(m))

    def video_records(video_id):
        one = DatasetManifest()
        one.videos[video_id] = m.videos[video_id]
        one.actions[video_id] = m.actions.get(video_id, [])
        return traced_retained(match_dataset, one)

    largest = max(map(video_records, m.videos))
    argv = ["match", "--manifest", str(path), "--out", str(tmp_path / "out")]
    run(argv)  # load the command's modules before tracing
    assert traced_peak(run, argv) - parsed_bytes[-1] <= 1.5 * largest


def test_best_fold_keeps_no_rank():
    # Under --policy best the fold keeps two list slots a clip of each matched video,
    # the action index and the IoU of the clip's best match, and nothing else: its
    # bytes are those of the same lists copied. A (-iou, action start, action index)
    # tuple and its negated float a matched clip added 88 bytes each.
    m = random_manifest(np.random.default_rng(12), n_videos=400)
    matches = match_dataset(m)  # alive throughout, so their IoU floats are not the fold's
    best = FilterPolicy.BEST_PER_CLIP
    folded = _fold_matches(m, matches, best)

    def copies():
        return {video_id: list(slots) for video_id, slots in folded.items()}

    copies()  # fill the interpreter's free lists first
    matched = len({(r.video_id, r.clip_id) for r in matches})
    extra = traced_retained(_fold_matches, m, matches, best) - traced_retained(copies)
    assert extra < struct.calcsize("P") * matched


def test_filter_command_holds_no_assignment(tmp_path, parsed_bytes):
    # Past the parsed manifest, filter holds its fold, one rank per matched clip, and
    # writes each assignment line as its video is reached. From N to 4N videos that
    # grows by about 90 bytes a kept clip; holding the whole assignment as well took
    # 290. The bound is one assignment entry's key tuple and index list a kept clip.
    grown = []
    for n in (100, 400):
        m = random_manifest(np.random.default_rng(12), n_videos=n)
        manifest, matches = tmp_path / f"m{n}.jsonl", tmp_path / f"matches{n}.jsonl"
        manifest.write_text(dumps_manifest(m))
        matches.write_text("".join(format_match_record(r) + "\n" for r in match_dataset(m)))
        assignment = tmp_path / f"assignment{n}"
        argv = ["filter", "--manifest", str(manifest), "--matches", str(matches), "--policy", "best",
                "--out", str(tmp_path / "out"), "--assignment", str(assignment)]
        run(argv)  # load the command's modules before tracing
        peak = traced_peak(run, argv)
        grown.append((peak - parsed_bytes[-1], len(assignment.read_text().splitlines())))
    (past_n, kept_n), (past_4n, kept_4n) = grown
    entry = sys.getsizeof(("v", "c")) + sys.getsizeof([0])
    assert past_4n - past_n < entry * (kept_4n - kept_n)


def test_stats_holds_one_token_file_of_keys(tmp_path, parsed_bytes):
    # Adding the action file to the caption file raises the peak past the parsed
    # manifest by less than the caption counts, one pointer a clip: each file's keys
    # are looked up as the manifest yields them, so none outlives its pass. Holding
    # a list of every clip's and action's key tuple until the report was written
    # added about 20 bytes a clip.
    m = random_manifest(np.random.default_rng(12), n_videos=400)
    manifest, caption, action = tmp_path / "m.jsonl", tmp_path / "caption.jsonl", tmp_path / "action.jsonl"
    manifest.write_text(dumps_manifest(m))
    caption.write_text("".join(json.dumps({"video_id": c.video_id, "clip_id": c.clip_id, "tokens": i % 200})
                               + "\n" for i, c in enumerate(m.iter_clips())))
    action.write_text("".join(json.dumps({"video_id": v, "action_index": i, "tokens": i % 200}) + "\n"
                              for v, records in m.actions.items() for i in range(len(records))))
    past = []
    for tokens in (["--caption-tokens", str(caption)],
                   ["--caption-tokens", str(caption), "--action-tokens", str(action)]):
        argv = ["stats", "--manifest", str(manifest), "--out", str(tmp_path / "out"), *tokens]
        run(argv)  # load the command's modules before tracing
        past.append(traced_peak(run, argv) - parsed_bytes[-1])
    assert past[1] - past[0] < struct.calcsize("P") * m.n_clips


def test_token_tables_hold_one_entry_a_line(tmp_path):
    # Past the counts it returns, reading a token file peaks at one table per video,
    # under the id that the manifest's records share: the bytes of those tables, rebuilt
    # here, and less than two pointers a line besides. One table keyed by a tuple and a
    # decoded video id a line added about 75 bytes a line.
    m = random_manifest(np.random.default_rng(12), n_videos=400)
    path = str(tmp_path / "action.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"video_id": v, "action_index": i, "tokens": i % 200}) + "\n"
                      for v, records in m.actions.items() for i in range(len(records)))

    def tables():
        built = {}
        for video_id, records in m.actions.items():
            table = built[video_id] = {}
            for i in range(len(records)):
                table[i] = i % 200
        return built

    read_token_counts("action", path, m)  # fill the interpreter's free lists first
    retained, peak = traced_memory(read_token_counts, "action", path, m)
    assert peak - retained - traced_retained(tables) < 2 * struct.calcsize("P") * m.n_actions


def test_parse_manifest_frees_its_temporaries(manifest_lines):
    # Beyond the manifest it returns, parsing peaks at its per-video clip dicts, about
    # 0.05 of the manifest. A set of clip ids per video beside the clip lists, and an
    # unsorted copy of each action list, took 0.17.
    parse_manifest(manifest_lines)  # fill the interpreter's free lists first
    retained, peak = traced_memory(parse_manifest, manifest_lines)
    assert peak - retained <= 0.1 * retained


def test_parsed_intervals_hold_no_floats(manifest_lines):
    # A TimeInterval stores both endpoints as doubles in itself. A slotted pair of
    # float objects cost 48 more bytes an interval.
    for records in manifest_lists(parse_manifest(manifest_lines)):
        for record in records:
            assert not any(isinstance(o, float) for o in gc.get_referents(record.interval))


def test_parse_manifest_retains_little_per_record(manifest_lines):
    # A clip or action record here keeps 229-245 bytes on Python 3.10-3.13, its text
    # included. Intervals holding two float objects each, and action lists as append
    # left them, kept 278-294.
    n_records = sum(map(len, manifest_lists(parse_manifest(manifest_lines))))  # also fills the free lists
    assert traced_retained(parse_manifest, manifest_lines) <= 260 * n_records


def test_parsed_action_lists_fit_their_records(manifest_lines):
    # Each is a sorted copy, sized as any copy of it is; the list append grew kept spare slots.
    for records in parse_manifest(manifest_lines).actions.values():
        assert sys.getsizeof(records) == sys.getsizeof(list(records))


def test_guards_trace_with_the_collector_off():
    # As the CLI runs. With it on, a collection mid-trace once moved
    # test_filter_peak_does_not_grow_with_repeated_matches past its bound.
    enabled = []
    traced_peak(lambda: enabled.append(gc.isenabled()))
    assert enabled == [False]
    assert gc.isenabled()


def test_windows_peak_grows_by_less_than_its_output(tmp_path):
    # From N to 4N sequences, beyond what read_step_sequences keeps, the traced
    # peak grows by about 0.1 times the output's growth in bytes: each sequence's
    # windows are written as they are built. Holding every output line took 1.2.
    rng = np.random.default_rng(3)
    grown = []
    for n in (100, 400):
        steps = tmp_path / f"steps{n}.jsonl"
        with open(steps, "w", encoding="utf-8") as fh:
            for i in range(n):
                seq = random_sequence(rng, 12, f"s{i:05d}")
                fh.writelines(json.dumps({"sequence_id": seq.sequence_id, **asdict(step)}) + "\n"
                              for step in seq.steps)

        def read():
            with open(steps, encoding="utf-8") as fh:
                return read_step_sequences(fh)

        read()  # fill the interpreter's free lists first, as in retained_by_variant
        out = tmp_path / f"windows{n}.jsonl"
        argv = ["windows", "--steps", str(steps), "--k", "2", "--out", str(out)]
        run(argv)  # load the command's modules before tracing
        grown.append((traced_peak(run, argv) - traced_retained(read), out.stat().st_size))
    (peak_n, out_n), (peak_4n, out_4n) = grown
    assert peak_4n - peak_n < 0.5 * (out_4n - out_n)


# The record types the readers build, without slots, so each instance carries a dict.
# A TimeInterval is a complex value with no fields, so it stays as it is.
_DICT_TWINS = {cls: make_dataclass(cls.__name__, [f.name for f in fields(cls)], frozen=True)
               for cls in (ClipRecord, ActionRecord, MatchRecord)}


def with_instance_dict(record):
    twin = _DICT_TWINS.get(type(record))
    if twin is None:
        return record
    return twin(*[with_instance_dict(getattr(record, f.name)) for f in fields(record)])


def with_own_id(record):
    return replace(record, video_id=record.video_id.encode().decode())  # equal, not shared


def manifest_lists(m):
    return [entry.clips for entry in m.videos.values()] + list(m.actions.values())


def retained_by_variant(read, record_lists, rebuild):
    """Bytes kept by read()'s result with each record replaced in place by rebuild(record)."""

    def variant():
        result = read()
        for records in record_lists(result):
            records[:] = map(rebuild, records)  # same length, so the list is not resized
        return result

    variant()  # fill the interpreter's free lists first, so the traced run leaves none behind
    return traced_retained(variant)


def check_compact(read, record_lists):
    # Each variant must keep at least one machine word a record more than the reader.
    n_records = sum(map(len, record_lists(read())))
    kept = retained_by_variant(read, record_lists, lambda record: record)
    for rebuild in (with_instance_dict, with_own_id):
        extra = retained_by_variant(read, record_lists, rebuild) - kept
        assert extra >= struct.calcsize("P") * n_records, rebuild.__name__


def test_manifest_records_are_compact(manifest_lines):
    check_compact(lambda: parse_manifest(manifest_lines), manifest_lists)


def test_match_records_are_compact(manifest_lines):
    lines = [format_match_record(r) for r in match_dataset(parse_manifest(manifest_lines))]
    check_compact(lambda: list(parse_match_records(lines)), lambda records: [records])
