"""Numerical kernels over embedding vectors.

Covers the evaluation math the pipeline needs once embeddings exist:
direction+magnitude regression loss with its analytic gradient, stochastic
perturbations (noise, masking, shuffling) for robustness studies, Gaussian
moment fitting with the Frechet distribution distance, paired cosine
scoring, and a drift-field matching loss.

The pair metrics are batch kernels: ``regression_loss``, ``flow_loss`` and
``clip_t_score`` take two whole sets of index-paired rows (a vector is one
row) and return the mean over the pairs. ``flow_matching_loss`` is a
record-list call of ``flow_loss``.

Everything computes in double precision regardless of storage dtype, and
every random operation is a pure function of an explicit seed. Per-item
random streams are derived from (seed, item index), so batch results never
depend on scheduling or thread count.

Memory: every kernel walks its input in blocks of _BLOCK rows, one block
(and its float64 working copy) alive at a time, so it never needs a whole
set in memory; a one-column set is the exception (see _row_sum). An input
is an ``EmbeddingSet``, an array, which becomes a set (see _as_rows), or a
reader that ``embedio.open_embeddings`` returns; every kernel walks it by
``blocks(lo, hi)`` and ``take(index)``, which give views of a set's vectors
and read a reader's rows from its file as they are needed.
``population_std`` and ``fit_moments`` make two passes (the mean, then the
deviations from it); the pair metrics walk the blocks of their two sets in
step; each process of a perturbation reads its own rows and hands each
finished block to its caller's writer (see _perturb_into). ``fit_moments``
adds each block's gram into its scatter in place. The Fréchet body adds its
jitter to the fitted covariances in place, takes the trace term from a
Cholesky factor and eigenvalues alone, with no eigenvectors unless a
covariance is not positive definite, and drops each d×d temporary after its
last use.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .params import PerturbationSpec, RegressionLossParams, check_threads

__all__ = [
    "EmbeddingSet",
    "RegressionLossParams",
    "RegressionLoss",
    "PerturbationSpec",
    "GaussianMoments",
    "FlowSample",
    "regression_loss",
    "regression_loss_grad",
    "population_std",
    "perturb",
    "perturb_set",
    "fit_moments",
    "check_jitter",
    "frechet_distance",
    "clip_t_score",
    "flow_loss",
    "flow_matching_loss",
]

# Rows per block in the row-blocked kernels and readers; bounds their temporaries.
_BLOCK = 512


def _real(x, name: str) -> np.ndarray:
    """x as an array; a complex one, whose imaginary part a cast to float drops, is rejected."""
    a = np.asarray(x)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real numbers")
    return a


@dataclass
class EmbeddingSet:
    """A stack of equal-dimension embedding vectors with optional ids.

    ``vectors`` is an (n, dim) finite float array, dim >= 1 (an integer array
    is stored as float64, a complex one rejected); ``ids`` are strings, none
    empty. Binary storage is single precision, so sets read from disk arrive
    as float32. Kernels upcast to float64 internally. A set reads as an open
    ``embedio.EmbeddingFile`` does, by ``blocks(lo, hi)`` (views) and
    ``take(index)``.
    """

    vectors: np.ndarray
    ids: list[str] | None = None

    def __post_init__(self):
        self.vectors = _real(self.vectors, "embeddings")
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        if self.vectors.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not np.issubdtype(self.vectors.dtype, np.floating):
            self.vectors = self.vectors.astype(np.float64)
        # Block by block, so that the bool temporary is one block's.
        if not all(np.isfinite(block).all() for block in self.blocks()):
            raise ValueError("embeddings must be finite")
        if self.ids is not None:
            if isinstance(self.ids, str) or not all(isinstance(i, str) and i for i in self.ids):
                raise ValueError("embedding ids must be non-empty strings")
            if len(self.ids) != len(self.vectors):
                raise ValueError(f"{len(self.ids)} ids for {len(self.vectors)} vectors")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    dim = property(lambda self: self.vectors.shape[1])
    shape = property(lambda self: self.vectors.shape)
    dtype = property(lambda self: self.vectors.dtype)

    def blocks(self, lo: int = 0, hi: int | None = None) -> Iterator[np.ndarray]:
        """Views of rows lo..hi (default: all), _BLOCK rows cut at lo, lo + _BLOCK, ..."""
        hi = len(self) if hi is None else hi
        return (self.vectors[i : min(i + _BLOCK, hi)] for i in range(lo, hi, _BLOCK))

    def take(self, index: Sequence[int]) -> np.ndarray:
        """Rows index[0], index[1], ..., in that order, in one fresh array."""
        return self.vectors[index]


ArrayLike = Union[np.ndarray, Sequence[float]]
# Kernels also take a reader with a set's ``shape``, ``dtype``, ``ids``,
# ``blocks(lo, hi)`` and ``take(index)``, as embedio.EmbeddingFile has.
Rows = Union[EmbeddingSet, ArrayLike]


def _as_rows(x: Rows, name: str = "embeddings"):
    """A set or a reader as it is; a vector as a set of one row and a 2-D array
    as a set, which checks it."""
    if hasattr(x, "blocks"):
        return x
    m = np.asarray(x)
    if m.ndim == 1 and m.size:
        m = m[None, :]
    if m.ndim != 2:
        raise ValueError(f"{name} must be a non-empty vector or 2-D, got shape {m.shape}")
    return EmbeddingSet(m)


def _as_vector(x: ArrayLike, name: str) -> np.ndarray:
    v = np.asarray(_real(x, name), dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    return v


def _check_pairs(a: Rows, b: Rows, names=("pred", "target")) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Raise ValueError unless two inputs hold as many rows as each other, at
    least one, of one dimension; return them as sets or readers (see _as_rows)."""
    x, y = _as_rows(a, names[0]), _as_rows(b, names[1])
    if len(x) != len(y):
        raise ValueError(f"pair count mismatch: {len(x)} vs {len(y)}")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if not len(x):
        raise ValueError("no pairs to score")
    return x, y


def _pair_rows(x, y, row_fn: Callable) -> np.ndarray:
    """Concatenate the per-row results of ``row_fn(a, b, first)`` over the float64
    copies of the blocks of _BLOCK paired rows of x and y, whose row 0 is pair
    ``first``. Every block pair is copied into the same two buffers:
    a fresh pair of float64 blocks each time would cost its page faults anew.
    Each stored block is copied straight from its iterator, so none is still
    alive while the next is read."""
    a64, b64 = np.empty((2, min(_BLOCK, len(x)), x.shape[1]))
    xs, ys = x.blocks(), y.blocks()
    results = []
    for first in range(0, len(x), _BLOCK):
        n = min(_BLOCK, len(x) - first)
        np.copyto(a64[:n], next(xs))
        np.copyto(b64[:n], next(ys))
        results.append(row_fn(a64[:n], b64[:n], first))
    return np.concatenate(results, axis=-1)


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Stacked matmul gives the bits of a 1-D x[i] @ y[i]; einsum does not.
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _row_cosines(x: np.ndarray, y: np.ndarray, first: int = 0):
    """Clipped cosines of paired float64 rows and both row norms; row 0 is pair ``first``.
    A zero-norm pair raises ValueError whose ``side`` is 0 if x's row is zero, else 1."""
    nx, ny = np.sqrt(_rowdot(x, x)), np.sqrt(_rowdot(y, y))
    bad = np.flatnonzero((nx == 0) | (ny == 0))
    if bad.size:
        error = ValueError(f"zero-norm embedding at pair index {first + int(bad[0])}")
        error.side = int(nx[bad[0]] != 0)
        raise error
    return np.clip(_rowdot(x, y) / (nx * ny), -1.0, 1.0), nx, ny


def _mean(values: np.ndarray) -> float:
    # Summed left to right, as a per-pair loop sums. numpy's pairwise sum rounds
    # differently, and so does Python's builtin sum from 3.12 on, which compensates
    # float sums. Adding 0.0, as sum's start value does, makes a sum of -0.0s 0.0.
    return (float(np.cumsum(values)[-1]) + 0.0) / len(values)


@dataclass(frozen=True)
class RegressionLoss:
    total: float
    cosine_term: float
    mse_term: float

    def to_dict(self) -> dict:
        return asdict(self)


@np.errstate(over="ignore")
def regression_loss(
    pred: Rows, target: Rows, p: RegressionLossParams | None = None
) -> RegressionLoss:
    """alpha * (1 - cosine(pred, target)) + beta * mean((pred - target)^2), each
    term averaged over the index-paired rows of two sets, or over one vector pair.
    A weight that scales a term past the float range makes it infinite, with no
    numpy warning."""
    p = p or RegressionLossParams()
    cos_term, mse_term = _pair_rows(*_check_pairs(pred, target), lambda a, b, first: (
        p.alpha * (1.0 - _row_cosines(a, b, first)[0]), p.beta * np.mean((a - b) ** 2, axis=1)))
    return RegressionLoss(_mean(cos_term + mse_term), _mean(cos_term), _mean(mse_term))


def regression_loss_grad(
    pred: ArrayLike, target: ArrayLike, p: RegressionLossParams | None = None
) -> np.ndarray:
    """Analytic gradient of regression_loss for one pair, with respect to ``pred``.

    d/dp [alpha (1 - p.t / (|p||t|))] = alpha (cos * p / |p|^2 - t / (|p||t|))
    d/dp [beta/N sum (p - t)^2]       = 2 beta / N * (p - t)
    """
    p = p or RegressionLossParams()
    x, y = _check_pairs(_as_vector(pred, "pred"), _as_vector(target, "target"))
    (cos,), (np_norm,), (nt_norm,) = _row_cosines(x.vectors, y.vectors)
    vp, vt = x.vectors[0], y.vectors[0]
    grad_cos = p.alpha * (cos * vp / np_norm**2 - vt / (np_norm * nt_norm))
    grad_mse = (2.0 * p.beta / vp.size) * (vp - vt)
    return grad_cos + grad_mse


def _row_sum(rows, mean: np.ndarray | None = None) -> np.ndarray:
    """The float64 sum of the rows, or, given ``mean``, of their squared deviations
    from it, with the bits of numpy's ``np.mean`` and ``np.std`` sums.

    numpy adds the rows of a set of 2 or more columns one at a time, in order.
    So does this, block by block: row 0 of a float64 buffer carries the sum
    from one block into the next. numpy sums a single column pairwise instead,
    so a one-column set is gathered into one array and summed whole.
    """
    if rows.shape[1] == 1:
        x = np.concatenate(list(rows.blocks()))
        if mean is not None:
            x = np.square(np.subtract(x, mean, dtype=np.float64))
        return np.sum(x, axis=0, dtype=np.float64)
    buf = np.zeros((min(_BLOCK, len(rows)) + 1, rows.shape[1]))
    for block in rows.blocks():
        part = buf[1 : len(block) + 1]
        if mean is None:
            part[...] = block
        else:
            np.square(np.subtract(block, mean, out=part), out=part)
        buf[0] = buf[: len(block) + 1].sum(axis=0)
        del block, part  # so that no stored block is alive while the next is read
    return buf[0].copy()


def population_std(embeddings: Rows) -> np.ndarray:
    """Per-dimension sample standard deviation (n-1 denominator), in float64.

    Bit for bit ``np.std(m, axis=0, ddof=1, dtype=np.float64)``, in two passes
    over blocks of rows (see _row_sum) instead of a centred float64 copy of
    the whole set.
    """
    m = _as_rows(embeddings)
    if m.shape[0] < 2:
        raise ValueError("population_std needs at least 2 vectors")
    mean = _row_sum(m) / m.shape[0]
    return np.sqrt(_row_sum(m, mean) / (m.shape[0] - 1))


def _item_rng(seed: int, item_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 0, item_index]))


def _order_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1]))


def _perturb_row(
    row: np.ndarray,
    basis: np.ndarray,
    spec: PerturbationSpec,
    item_index: int,
    coord_shuffle: bool,
) -> np.ndarray:
    rng = _item_rng(spec.seed, item_index)
    x = row.astype(np.float64)
    if spec.noise_scale > 0:
        x = x + rng.standard_normal(x.size) * (spec.noise_scale * basis)
    if spec.mask_rate > 0:
        x = np.where(rng.random(x.size) < spec.mask_rate, 0.0, x)
    if coord_shuffle and spec.shuffle:
        x = x[rng.permutation(x.size)]
    return x


def _std_basis(std_basis: ArrayLike, dim: int) -> np.ndarray:
    basis = _as_vector(std_basis, "std_basis")
    if basis.shape[0] != dim:
        raise ValueError(
            f"std_basis dimension {basis.shape[0]} does not match embedding dimension {dim}"
        )
    if not np.isfinite(basis).all():
        raise ValueError("std_basis must be finite")
    return basis


def _in_range(rows: np.ndarray) -> np.ndarray:
    """``rows``, unless a cast to their dtype has left an infinity."""
    if not np.isfinite(rows).all():
        raise ValueError(f"the noise takes perturbed values past the {rows.dtype} range")
    return rows


def perturb(
    z: ArrayLike, std_basis: ArrayLike, spec: PerturbationSpec, item_index: int = 0
) -> np.ndarray:
    """Corrupt one embedding: add scaled noise, mask, then shuffle coordinates.

    Bitwise deterministic in (spec.seed, item_index). The row is computed in
    float64, so the identity spec returns an unmodified copy of any vector of
    at most double precision. Output dtype matches the input when it is a
    float array, otherwise float64.
    """
    v = _real(z, "embedding")
    if v.ndim != 1 or v.size < 1:
        raise ValueError("embedding must be a non-empty 1-D vector")
    row = EmbeddingSet(v[None, :])  # checked as a set's rows are
    basis = _std_basis(std_basis, row.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _perturb_row(row.vectors[0], basis, spec, item_index, coord_shuffle=True).astype(row.dtype)
    return _in_range(out)


def _worker_count(threads: int, rows: int) -> int:
    """Processes that a perturbation splits ``rows`` across: ``threads``, capped
    by the rows and by the CPUs this process may run on."""
    check_threads(threads)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity call outside Linux
        cpus = os.cpu_count() or 1
    return max(1, min(threads, rows, cpus))


def _run_forked(fill: Callable[[int, int], None], bounds: list[int]) -> None:
    """Run ``fill(lo, hi)`` over each range of ``bounds``: the first in this
    process, each other in a ``multiprocessing`` fork-context worker, every one
    joined before this returns or raises. A worker whose fill raises ValueError
    (bad input rows) or OSError (a failed read or write) sends it back through
    a pipe, and the first such range's error is raised here, as this process
    would have raised it; a worker that fails otherwise prints ``Process
    ForkProcess-N:`` and its traceback, and raises ChildProcessError here.

    A worker dies by SIGINT or SIGTERM as a process with no handler does,
    quietly: both are blocked from before its fork until it has restored their
    default actions. When this process leaves by an exception, its own range's
    error or an interruption, it terminates its workers, whose rows are no
    longer wanted, before it joins them.

    Fork copies only the calling thread. OpenBLAS's idle threads stay behind,
    which is safe because the row loop calls no BLAS: it reads rows, draws
    random numbers, does elementwise arithmetic and indexing, and writes.
    """

    def work(lo: int, hi: int, send) -> None:
        for signum in stops:
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, stops)
        try:
            fill(lo, hi)
        except (ValueError, OSError) as exc:
            send.send(exc)

    workers, ends = [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            # Loaded only here: --threads 1 and the other commands never need them.
            import multiprocessing
            import signal

            stops = {signal.SIGINT, signal.SIGTERM}
            context = multiprocessing.get_context("fork")  # not the platform's default start method
            reply, send = context.Pipe(duplex=False)
            worker = context.Process(target=work, args=(lo, hi, send))
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, stops)
            try:  # a signal that arrives meanwhile waits until the worker is on the list
                worker.start()
                workers.append((worker, reply, lo, hi))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            send.close()
        fill(bounds[0], bounds[1])
        for worker, reply, lo, hi in workers:
            # Read before the join: a worker that sends an error larger than the pipe
            # buffer blocks until it is read.
            try:
                sent = reply.recv()  # until the worker sends an error or exits
            except EOFError:
                sent = None
            worker.join()
            ends.append((worker.exitcode, sent, lo, hi))
    except BaseException:
        for worker, *_ in workers:
            worker.terminate()
        raise
    finally:
        for worker, reply, *_ in workers:
            reply.close()
            worker.join()
    for code, sent, lo, hi in ends:
        if sent is not None:
            raise sent
        if code:
            raise ChildProcessError(f"perturb worker for rows {lo}..{hi - 1} exited with status {code}")


def _perturb_into(
    write: Callable[[np.ndarray, int], None],
    embeddings: Rows,
    std_basis: ArrayLike,
    spec: PerturbationSpec,
    shuffle_mode: str = "coords",
    threads: int = 1,
) -> list[str] | None:
    """Hand the rows of ``perturb_set(embeddings, std_basis, spec, shuffle_mode,
    threads)``, in the set's dtype, to ``write(block, k)``, row 0 of ``block``
    being output row k, input row src[k] perturbed (src is the sequence-shuffle
    order, or the identity); return the output's ids, None for an array.

    Each process walks its range of output rows (see perturb_set) in blocks of
    _BLOCK rows, checks each is finite and calls ``write`` on it there, once per
    row in all; write must copy what it keeps, as the next block reuses the buffer.
    """
    if shuffle_mode not in ("coords", "sequence"):
        raise ValueError(f"shuffle_mode must be 'coords' or 'sequence', got {shuffle_mode!r}")
    rows = _as_rows(embeddings)
    n, dim = rows.shape
    basis = _std_basis(std_basis, dim)
    coord_shuffle = shuffle_mode == "coords"
    src = range(n)
    if spec.shuffle and not coord_shuffle:
        src = _order_rng(spec.seed).permutation(n).tolist()
    ids = None if rows.ids is None else [rows.ids[i] for i in src]

    def fill(lo: int, hi: int) -> None:
        out = np.empty((min(_BLOCK, hi - lo), dim), rows.dtype)
        if isinstance(src, range):  # the rows in order, a block at a time
            stored = rows.blocks(lo, hi)
        else:  # each block's rows gathered from the sequence-shuffle order
            stored = (rows.take(src[i : min(i + _BLOCK, hi)]) for i in range(lo, hi, _BLOCK))
        for first in range(lo, hi, _BLOCK):
            block = out[: min(_BLOCK, hi - first)]
            for k, row in enumerate(next(stored)):
                block[k] = _perturb_row(row, basis, spec, src[first + k], coord_shuffle)
            del row  # a view that keeps its input block alive while the next is read
            write(_in_range(block), first)

    # A cast past the dtype's range leaves an infinity, reported once by the
    # check above instead of one warning per process.
    workers = _worker_count(threads, n)
    with np.errstate(over="ignore", invalid="ignore"):
        _run_forked(fill, [n * k // workers for k in range(workers + 1)])
    return ids


def perturb_set(
    embeddings: Rows,
    std_basis: ArrayLike,
    spec: PerturbationSpec,
    shuffle_mode: str = "coords",
    threads: int = 1,
) -> EmbeddingSet:
    """Apply perturb to every vector of a set, an array or a reader's set.

    ``shuffle_mode`` selects what the shuffle stage permutes: "coords"
    shuffles coordinates within each vector, "sequence" permutes the order
    of the vectors themselves (ids travel with their rows). Each row owns
    its random stream, so the output bytes do not depend on ``threads``.

    ``threads`` (at least 1) splits the output rows into that many
    contiguous ranges, capped by the rows and by the CPUs this process may
    run on. This process perturbs the first range and a ``multiprocessing``
    fork-context worker each other range; each reads only the input rows its
    range needs, _BLOCK at a time, and stores each finished block into one
    anonymous shared memory map that the workers inherit and that backs the
    result's vectors (see _perturb_into). Fork copies only the calling thread,
    so pass ``threads`` above 1 only from a process that runs no other Python
    thread. A reader's error in a worker's rows is raised here; a worker that
    fails otherwise prints ``Process ForkProcess-N:`` and its traceback, and
    raises ChildProcessError here, once every worker has exited.

    Raises ValueError when the noise takes a value past the range of the
    set's dtype.
    """
    import mmap  # loaded only here: no command calls perturb_set
    rows = _as_rows(embeddings)
    size = len(rows) * rows.shape[1] * rows.dtype.itemsize
    vectors = np.ndarray(rows.shape, rows.dtype, mmap.mmap(-1, max(1, size)))  # a map of 0 bytes is refused
    ids = _perturb_into(lambda block, k: np.copyto(vectors[k : k + len(block)], block), rows, std_basis,
                        spec, shuffle_mode, threads)
    return EmbeddingSet(vectors, ids)


@dataclass(frozen=True, eq=False)
class GaussianMoments:
    """First and second moments of an embedding population.

    ``covariance`` must be symmetric; small negative eigenvalues from
    sampling noise are tolerated and clamped inside frechet_distance.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(
            self, "covariance", np.asarray(self.covariance, dtype=np.float64)
        )
        if self.mean.ndim != 1:
            raise ValueError("mean must be 1-D")
        n = self.mean.shape[0]
        if self.covariance.shape != (n, n):
            raise ValueError(
                f"covariance shape {self.covariance.shape} does not match mean "
                f"dimension {n}"
            )
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-8):
            raise ValueError("covariance must be symmetric")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def fit_moments(embeddings: Rows) -> GaussianMoments:
    """Sample mean and unbiased covariance of an embedding population.

    Two passes over blocks of _BLOCK rows. The first sums the rows (see
    _row_sum), so the mean has the bits of ``np.mean(x, axis=0,
    dtype=np.float64)``. The second centres each block into one float64
    buffer, writes its gram ``b.T @ b`` into one d×d matrix and adds that to
    the scatter in place, which gives the bits of builtin ``sum`` over the
    grams; the scatter is scaled by 1 / (n - 1). A set of at most _BLOCK rows
    is one block, so its covariance has the bits of ``np.cov(rowvar=False,
    ddof=1)``; more blocks round differently, by about 1e-16 relative.
    """
    x = _as_rows(embeddings)
    if x.shape[0] < 2:
        raise ValueError("fit_moments needs at least 2 vectors")
    mean = _row_sum(x) / x.shape[0]
    # The scatter first: made after the buffers, it would sit above them in the
    # heap, and their freed space would stay beneath the Fréchet body's matrices.
    scatter = np.zeros((x.shape[1], x.shape[1]))
    gram = np.empty_like(scatter)
    buf = np.empty((min(_BLOCK, x.shape[0]), x.shape[1]))
    for block in x.blocks():
        b = np.subtract(block, mean, out=buf[: len(block)])
        del block  # so that no stored block is alive while the next is read
        scatter += np.dot(b.T, b, out=gram)
    del gram, buf, b
    scatter *= np.true_divide(1, x.shape[0] - 1)
    return GaussianMoments(mean, scatter)


def check_jitter(jitter: float) -> None:
    """Raise ValueError unless jitter is a diagonal term frechet_distance accepts.

    This checks the value alone; whether it swamps a covariance is checked by
    frechet_distance, once the covariances are known.
    """
    if not 0 <= jitter < np.inf:
        raise ValueError(f"jitter must be finite and >= 0, got {jitter}")


def frechet_distance(
    a: GaussianMoments, b: GaussianMoments, jitter: float = 1e-6
) -> float:
    """Squared 2-Wasserstein distance between two Gaussians.

    |mu_a - mu_b|^2 + Tr(C_a + C_b - 2 (C_a C_b)^{1/2}). The trace of the
    square root is the sum of the square roots of the eigenvalues of the
    symmetric F^T C_b F, where C_a = F F^T: F is C_a's Cholesky factor, or,
    when C_a is not positive definite, C_a^{1/2}, whose negative eigenvalues
    are clamped to zero; negative eigenvalues of F^T C_b F are clamped too.
    ``jitter`` is added to both covariance diagonals to stabilise
    near-singular inputs; pass 0.0 when the moments are exact. The result is
    clamped to be non-negative.

    Raises ValueError naming the stage whose values are not finite, or, when
    every stage is finite, when the jitter swamps the sets, so that the
    distance would read the jitter, not the sets (two different samples could
    score 0.0): when adding it leaves the mean term, and every diagonal entry
    of a covariance that has a non-zero variance, equal to the jitter alone;
    or when the mean term survives being added to the bare covariances'
    traces but is lost in the jittered ones. Neither fires at jitter 0.

    ``a`` and ``b`` are left as they are: the jitter goes into a copy of each
    covariance, which is dropped after its last use (see _frechet).
    """
    return _frechet([GaussianMoments(m.mean, m.covariance.copy()) for m in (a, b)], jitter)


@np.errstate(over="ignore", invalid="ignore")  # every stage is checked for finite values
def _frechet(moments: list[GaussianMoments], jitter: float) -> float:
    """frechet_distance of the two moments in ``moments``, which it consumes: it
    empties the list and adds the jitter to their covariances in place. Each d×d
    matrix is dropped after its last use, so that at most four more than the
    moments are alive at once."""
    a, b = moments
    moments.clear()
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    check_jitter(jitter)
    diff = a.mean - b.mean
    ca, cb = a.covariance, b.covariance
    del a, b
    # The swamp checks below read the bare covariances too.
    variances = [ca.diagonal().any(), cb.diagonal().any()]
    bare = float(np.trace(ca) + np.trace(cb))
    for c in (ca, cb):
        c.flat[:: c.shape[0] + 1] += jitter
    only_jitter = [(ca.diagonal() == jitter).all(), (cb.diagonal() == jitter).all()]
    traces = float(np.trace(ca) + np.trace(cb))

    mean_term = float(diff @ diff)
    if not np.isfinite(mean_term):
        raise ValueError("non-finite value in the mean term")

    try:  # C_a = F F^T, so F^T C_b F has the eigenvalues of C_a C_b
        f = np.linalg.cholesky(ca)
    except np.linalg.LinAlgError:  # C_a is not positive definite
        f = None  # set outside the handler, whose traceback would keep C_a alive
    if f is None:  # F = C_a^{1/2}, with negative eigenvalues clamped to zero, written over C_a
        try:
            w, v = np.linalg.eigh(ca)
        except np.linalg.LinAlgError as exc:
            raise ValueError("eigendecomposition failed during covariance square root") from exc
        f = np.matmul(v * np.sqrt(np.clip(w, 0.0, None)), v.T, out=ca)
        del v
    del ca
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite value in the covariance square root")

    inner = f.T @ cb @ f
    del f, cb
    inner = (inner + inner.T) / 2.0
    if not np.all(np.isfinite(inner)):
        raise ValueError("non-finite value in the trace term")
    try:
        eigvals = np.linalg.eigvalsh(inner)
    except np.linalg.LinAlgError as exc:
        raise ValueError("eigendecomposition failed during the trace term") from exc
    del inner
    if not np.all(np.isfinite(eigvals)):
        raise ValueError("non-finite value in the trace term")
    trace_cross = 2.0 * float(np.sum(np.sqrt(np.clip(eigvals, 0.0, None))))

    value = mean_term + traces - trace_cross
    if not np.isfinite(value):
        raise ValueError("non-finite value in the final distance")
    for which, variance, jitter_alone in zip(("first", "second"), variances, only_jitter):
        if mean_term + jitter == jitter and variance and jitter_alone:
            raise ValueError(f"jitter {jitter!r} swamps the mean term and every variance of the {which} set")
    if mean_term + bare != bare and mean_term + traces == traces:
        raise ValueError(f"jitter {jitter!r} swamps the mean term")
    return max(0.0, value)


def clip_t_score(text_embs: Rows, image_embs: Rows, scale: str = "raw") -> float:
    """Mean cosine similarity over index-paired text/image embeddings.

    ``scale`` is "raw" for the bare mean or "percent" for the conventional
    x100 reporting scale.
    """
    if scale not in ("raw", "percent"):
        raise ValueError(f"scale must be 'raw' or 'percent', got {scale!r}")
    t, v = _check_pairs(text_embs, image_embs, ("text embeddings", "image embeddings"))
    mean = _mean(_pair_rows(t, v, _row_cosines)[0])
    return mean * 100.0 if scale == "percent" else mean


@dataclass(frozen=True, eq=False)
class FlowSample:
    """A predicted drift vector paired with the ideal drift at one point."""

    predicted_drift: np.ndarray
    target_drift: np.ndarray

    def __post_init__(self):
        pred, target = _check_pairs(
            _as_vector(self.predicted_drift, "predicted_drift"),
            _as_vector(self.target_drift, "target_drift"),
        )
        object.__setattr__(self, "predicted_drift", pred.vectors[0])
        object.__setattr__(self, "target_drift", target.vectors[0])


def flow_loss(pred: Rows, target: Rows) -> float:
    """Mean squared L2 distance between predicted and target drifts, over the
    index-paired rows of two sets, or over one vector pair."""
    x, y = _check_pairs(pred, target)
    return _mean(_pair_rows(x, y, lambda a, b, first: _rowdot(d := a - b, d)))


def flow_matching_loss(samples: Iterable[FlowSample]) -> float:
    """flow_loss over FlowSample records."""
    records = list(samples)
    if not records:
        raise ValueError("no flow samples to evaluate")
    dims = sorted({s.predicted_drift.shape[0] for s in records})
    if len(dims) > 1:
        raise ValueError(f"flow samples differ in dimension: {dims}")
    return flow_loss(
        np.stack([s.predicted_drift for s in records]),
        np.stack([s.target_drift for s in records]),
    )
