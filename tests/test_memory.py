"""Peak-memory guards for the embedding kernels and I/O.

numpy reports its data buffers to tracemalloc, so a traced peak counts every
array a call allocates, exactly and repeatably. Each bound is in units of
S, the byte size of the float32 input set, and sits between what one stored
copy per set costs and what an extra whole-set copy would add.
"""

import tracemalloc

import numpy as np
import pytest

from narrkit.embedcore import EmbeddingSet, PerturbationSpec, fit_moments, perturb_set, population_std
from narrkit.embedio import read_embeddings, write_embeddings

N, DIM = 4000, 256
S = N * DIM * 4


@pytest.fixture(scope="module")
def es():
    return EmbeddingSet(np.random.default_rng(7).normal(size=(N, DIM)).astype(np.float32))


def traced_peak(fn, *args):
    """Peak bytes traced while fn(*args) runs; its result is still alive at the peak."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_binary_read_holds_one_copy(es, tmp_path):
    path = tmp_path / "x.emb"
    write_embeddings(es, path)
    assert traced_peak(read_embeddings, path) <= 1.5 * S


def test_binary_write_copies_nothing(es, tmp_path):
    assert traced_peak(write_embeddings, es, tmp_path / "x.emb") <= 0.25 * S


def test_population_std_upcasts_once(es):
    assert traced_peak(population_std, es) <= 2.3 * S


def test_fit_moments_upcasts_once(es):
    assert traced_peak(fit_moments, es) <= 2.6 * S


@pytest.mark.parametrize("mode", ["coords", "sequence"])
def test_perturb_set_writes_rows_in_place(es, mode):
    assert traced_peak(perturb_set, es, np.ones(DIM), PerturbationSpec(seed=3), mode) <= 1.5 * S
