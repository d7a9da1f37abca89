"""The corpus commands reproduce the committed digests of their outputs (see golden.py)."""

import golden


def test_corpus_commands_match_golden_digests(tmp_path):
    assert golden.run_cases(str(tmp_path)) == golden.load_digests()
