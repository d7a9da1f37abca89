"""Write the golden inputs in this directory. Standard library only.

Every file is a pure function of ``SEED`` through ``random.Random``, so no
numpy release can move them; they are committed, and this script only shows
how they were made. Rerunning it rewrites the same bytes:

    python tests/data/golden/make_inputs.py

The manifest covers what the corpus commands are most likely to get wrong:
captions with non-ASCII text, U+2028, quotes and backslashes; clips and
actions that touch end to start; equal starts; and start-aligned pairs
whose IoU sits just below, at and just above 0.2, 0.25 and 0.5. A few
videos break ``validate``'s rules, so ``validate`` writes violations.

The two embedding sets feed the ``perturb`` cases: ``set.emb``, an ``EMB1``
file without ids, and ``set.jsonl``, whose records carry ids, some of them
non-ASCII. Their values are Gaussian draws rounded to float32 (the binary
set) or to six decimals (the JSONL set). ``pair-a.emb`` and ``pair-b.emb``
feed the pair metric cases: 1100 index-paired rows of 12 float32 values,
more than two blocks of the kernels' 512 rows and more than one of 1024, the
second set correlated with the first. They are drawn after every other file,
so adding them moved no earlier byte.

The ``bad-*`` files each hold one bad line, or for the config one bad value,
that a reader must reject: a reversed clip interval, an IoU past 1, a repeated
key, a rating past 6, a step index given as a string, a repeated caption token
count, a negative action token count and decreasing histogram edges. They are
written verbatim from ``BAD``, after the drawn files.
"""

from __future__ import annotations

import json
import os
import random
import struct

SEED = 20261018
HERE = os.path.dirname(os.path.abspath(__file__))

_WORDS = (
    "stir the sauce pour oil chop onions heat pan add salt mix batter "
    "flip gently plate garnish simmer broth whisk eggs knead dough"
).split()
_ODD = ["crème", "jalapeño", "炒める", "🍳", "naïve", 'say "when"', "a\\b", "tab\there",
        "line\u2028sep", "para\u2029sep", "ß", "Ωmega"]
_TIERS = ("VeryMatch", "GoodMatch", "SomehowMatch", "NotMatch")
# Action length over clip length for a start-aligned pair: that ratio is the IoU.
_RATIOS = (0.19, 0.2, 0.21, 0.24, 0.25, 0.26, 0.49, 0.5, 0.51)


def _text(rnd: random.Random, lo: int = 1, hi: int = 10) -> str:
    words = [rnd.choice(_WORDS) for _ in range(rnd.randint(lo, hi))]
    if rnd.random() < 0.2:
        words.insert(rnd.randrange(len(words) + 1), rnd.choice(_ODD))
    return " ".join(words)


def _time(rnd: random.Random, hi: float) -> float:
    # Mix round values with full-precision ones.
    return float(rnd.randrange(int(hi))) if rnd.random() < 0.3 else rnd.uniform(0, hi)


def _video(rnd: random.Random, n: int) -> tuple[str, list[dict]]:
    video_id = f"v{n:03d}" if n % 17 else f"v{n:03d}-é"
    clips, actions = [], []
    for j in range(rnd.randint(0, 12)):
        start = _time(rnd, 200)
        clips.append([f"c{j:02d}", start, start + rnd.uniform(0.5, 40), _text(rnd)])
    for clip in list(clips):
        shape = rnd.random()
        _, start, end, _ = clip
        if shape < 0.25:  # start-aligned, IoU near a threshold
            actions.append([start, start + (end - start) * rnd.choice(_RATIOS)])
        elif shape < 0.35:  # exact ratios: 2/10, 2/8, 2/4
            base = float(rnd.randrange(100))
            clip[1:3] = [base, base + rnd.choice((10.0, 8.0, 4.0))]
            actions.append([base, base + 2.0])
        elif shape < 0.45:  # touching: the action starts where the clip ends
            actions.append([end, end + rnd.uniform(0.5, 20)])
        elif shape < 0.5 and len(clips) < 14:  # another clip starting as this one ends
            clips.append([f"t{len(clips):02d}", end, end + rnd.uniform(0.5, 20), _text(rnd)])
        elif shape < 0.6:  # the action covers the clip
            actions.append([max(0.0, start - rnd.uniform(0, 3)), end + rnd.uniform(0, 3)])
    for _ in range(rnd.randint(0, 8)):
        start = _time(rnd, 200)
        actions.append([start, start + rnd.uniform(0.5, 40)])
    lines = []
    if clips and rnd.random() < 0.7:
        duration = max(c[2] for c in clips) + rnd.uniform(-5, 30)  # may cut a clip short
        lines.append({"kind": "video", "video_id": video_id, "duration_s": duration})
    elif rnd.random() < 0.5:
        lines.append({"kind": "video", "video_id": video_id, "duration_s": None})
    for clip_id, start, end, caption in clips:
        if rnd.random() < 0.02:
            caption = " "  # blank: a validate violation
        lines.append({"kind": "clip", "video_id": video_id, "clip_id": clip_id,
                      "start_s": start, "end_s": end, "caption": caption})
    for start, end in actions:
        lines.append({"kind": "action", "video_id": video_id, "start_s": start, "end_s": end,
                      "description": _text(rnd)})
    return video_id, lines


BAD = {
    "bad-manifest.jsonl": (
        '{"kind": "video", "video_id": "v1", "duration_s": 30.0}\n'
        "\n"
        '{"kind": "clip", "video_id": "v1", "clip_id": "c01", "start_s": 1.0, "end_s": 4.0, '
        '"caption": "chop"}\n'
        '{"kind": "clip", "video_id": "v1", "clip_id": "c02", "start_s": 5.0, "end_s": 2.0, '
        '"caption": "stir"}\n'
    ),
    "bad-matches.jsonl": (
        '{"video_id": "v002", "clip_id": "c00", "action_index": 10, "iou": 0.694302136, '
        '"start_diff_s": 7.940939136, "rule": "RuleB"}\n'
        '{"video_id": "v002", "clip_id": "c00", "action_index": 11, "iou": 1.5, '
        '"start_diff_s": 4.995074738, "rule": "RuleA"}\n'
    ),
    "bad-tiers.jsonl": (
        '{"item_id": "item-000", "rater_id": "r0", "tier": "GoodMatch"}\n'
        '{"item_id": "item-000", "rater_id": "r1", "tier": "NotMatch", "tier": "VeryMatch"}\n'
    ),
    "bad-ratings.jsonl": '{"item_id": "item-000", "rating": 6}\n{"item_id": "item-001", "rating": 7}\n',
    "bad-steps.jsonl": (
        '{"sequence_id": "s1", "index": 1, "action": "chop", "caption": "chop onions", '
        '"embedding_id": "e1", "keyframe_id": "k1"}\n'
        "   \n"
        '{"sequence_id": "s1", "index": "2", "action": "stir", "caption": "stir the sauce", '
        '"embedding_id": "e2", "keyframe_id": "k2"}\n'
    ),
    "bad-caption-tokens.jsonl": (
        '{"video_id": "v076", "clip_id": "c08", "tokens": 199}\n'
        '{"video_id": "v076", "clip_id": "c08", "tokens": 12}\n'
    ),
    "bad-action-tokens.jsonl": (
        '{"video_id": "v000-\u00e9", "action_index": 0, "tokens": 1}\n'
        '{"video_id": "v000-\u00e9", "action_index": 1, "tokens": -1}\n'
    ),
    "bad-config.json": '{"histogram_edges": {"clip_length_s": [0, 5, 2.5]}}\n',
}


def _write(name: str, records: list[dict]) -> None:
    with open(os.path.join(HERE, name), "w", encoding="utf-8", newline="") as fh:
        fh.writelines(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records)


def main() -> None:
    rnd = random.Random(SEED)
    manifest = []
    for n in range(200):
        manifest.extend(_video(rnd, n)[1])
    rnd.shuffle(manifest)  # the parser is insensitive to line order
    _write("manifest.jsonl", manifest)

    # The token files key by the ids of the parsed manifest: actions are
    # indexed in (start, end, description) order within their video.
    clips = [(r["video_id"], r["clip_id"]) for r in manifest if r["kind"] == "clip"]
    actions: dict[str, list] = {}
    for r in manifest:
        if r["kind"] == "action":
            actions.setdefault(r["video_id"], []).append(r)
    _write("caption_tokens.jsonl", [
        {"video_id": v, "clip_id": c, "tokens": rnd.randint(0, 220)} for v, c in clips
    ])
    _write("action_tokens.jsonl", [
        {"video_id": v, "action_index": i, "tokens": rnd.randint(0, 180)}
        for v in sorted(actions) for i in range(len(actions[v]))
    ])

    steps = []
    for s in range(12):
        for index in range(1, rnd.randint(6, 20) + 1):
            steps.append({"sequence_id": f"seq-{s:02d}", "index": index, "action": _text(rnd, 1, 4),
                          "caption": _text(rnd, 3, 9), "embedding_id": f"emb-{s}-{index}",
                          "keyframe_id": f"key-{s}-{index}"})
    rnd.shuffle(steps)
    _write("steps.jsonl", steps)

    _write("tiers.jsonl", [
        {"item_id": f"item-{i:03d}", "rater_id": f"r{r}", "tier": rnd.choice(_TIERS)}
        for i in range(60) for r in range(rnd.randint(1, 5))
    ])
    _write("ratings.jsonl", [
        {"item_id": f"item-{i:03d}", "rating": rnd.randint(0, 6)} for i in range(150)
    ])

    # Three items whose means, 100, 66.66666666666667 and 28.333333333333332, add up
    # to 195.00000000000003 left to right, and to 195.0 under the compensated float
    # sum that Python 3.12's builtin sum does.
    _write("tiers-item-means.jsonl", [
        {"item_id": item, "rater_id": f"r{r}", "tier": tier}
        for item, tiers in (("a", ["VeryMatch"] * 3), ("b", ["VeryMatch", "VeryMatch", "NotMatch"]),
                            ("c", ["GoodMatch", "NotMatch", "NotMatch"]))
        for r, tier in enumerate(tiers)
    ])

    rows, dim = 40, 12
    with open(os.path.join(HERE, "set.emb"), "wb") as fh:
        fh.write(b"EMB1" + struct.pack("<II", rows, dim))
        fh.write(struct.pack(f"<{rows * dim}f", *[rnd.gauss(0, 1) for _ in range(rows * dim)]))
    _write("set.jsonl", [
        {"id": f"e{i:02d}" if i % 7 else f"e{i:02d}-{rnd.choice(_ODD)}",
         "values": [round(rnd.gauss(0, 2), 6) for _ in range(8)]}
        for i in range(30)
    ])

    config = {"max_start_diff_s": 4.5, "beta": 2.0, "mask_rate": 0.5, "k": 3, "threads": 1,
              "histogram_edges": {"clip_length_s": [0, 2.5, 5, 10, 20, 40]}}
    with open(os.path.join(HERE, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)
        fh.write("\n")

    rows, dim = 1100, 12
    first = [rnd.gauss(0, 1) for _ in range(rows * dim)]
    second = [0.6 * x + rnd.gauss(0.1, 0.8) for x in first]
    for name, values in (("pair-a.emb", first), ("pair-b.emb", second)):
        with open(os.path.join(HERE, name), "wb") as fh:
            fh.write(b"EMB1" + struct.pack("<II", rows, dim))
            fh.write(struct.pack(f"<{rows * dim}f", *values))

    for name, text in BAD.items():
        with open(os.path.join(HERE, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
