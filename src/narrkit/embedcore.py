"""Numerical kernels over embedding vectors.

Covers the evaluation math the pipeline needs once embeddings exist:
direction+magnitude regression loss with its analytic gradient, stochastic
perturbations (noise, masking, shuffling) for robustness studies, Gaussian
moment fitting with the Frechet distribution distance, paired cosine
scoring, and a drift-field matching loss.

The pair losses are batch kernels: ``regression_loss`` and ``flow_loss``
take two whole sets of index-paired rows (a vector is one row) and return
the mean over the pairs. ``cosine_similarity`` and ``flow_matching_loss``
are one-row and record-list calls of the same code.

Everything computes in double precision regardless of storage dtype, and
every random operation is a pure function of an explicit seed. Per-item
random streams are derived from (seed, item index), so batch results never
depend on scheduling or thread count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "EmbeddingSet",
    "RegressionLossParams",
    "RegressionLoss",
    "PerturbationSpec",
    "GaussianMoments",
    "FlowSample",
    "cosine_similarity",
    "regression_loss",
    "regression_loss_grad",
    "population_std",
    "perturb",
    "perturb_set",
    "rescale_latent",
    "add_noise",
    "fit_moments",
    "frechet_distance",
    "clip_t_score",
    "flow_loss",
    "flow_matching_loss",
]

_U64 = (1 << 64) - 1


@dataclass
class EmbeddingSet:
    """A stack of equal-dimension embedding vectors with optional ids.

    ``vectors`` is an (n, dim) float array; binary storage is single
    precision, so sets read from disk arrive as float32. Kernels upcast to
    float64 internally.
    """

    vectors: np.ndarray
    ids: list[str] | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors)
        if self.vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {self.vectors.shape}")
        if self.vectors.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not np.issubdtype(self.vectors.dtype, np.floating):
            self.vectors = self.vectors.astype(np.float64)
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("embeddings must be finite")
        if self.ids is not None:
            if len(self.ids) != len(self.vectors):
                raise ValueError(
                    f"{len(self.ids)} ids for {len(self.vectors)} vectors"
                )
            if any(not i for i in self.ids):
                raise ValueError("embedding ids must be non-empty strings")

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


ArrayLike = Union[np.ndarray, Sequence[float]]
Rows = Union[EmbeddingSet, ArrayLike]


def _as_rows(x: Rows, name: str = "embeddings") -> np.ndarray:
    """Rows of a set, 2-D array or vector (one row), in their stored dtype."""
    m = x.vectors if isinstance(x, EmbeddingSet) else np.asarray(x)
    if m.ndim == 1 and m.size:
        return m[None, :]
    if m.ndim != 2:
        raise ValueError(f"{name} must be a non-empty vector or 2-D, got shape {m.shape}")
    return m


def _as_vector(x: ArrayLike, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    return v


# Rows per block in the pair kernels; bounds their float64 temporaries.
_BLOCK = 1024


def _pairs(a: Rows, b: Rows, names=("pred", "target")) -> tuple[np.ndarray, np.ndarray]:
    """Check two index-paired inputs and return them as rows (see _as_rows)."""
    x, y = _as_rows(a, names[0]), _as_rows(b, names[1])
    if len(x) != len(y):
        raise ValueError(f"pair count mismatch: {len(x)} vs {len(y)}")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if not len(x):
        raise ValueError("no pairs to score")
    return x, y


def _blocks(x: np.ndarray, y: np.ndarray):
    """Yield (first row index, x rows, y rows) in float64, _BLOCK rows at a time."""
    for lo in range(0, len(x), _BLOCK):
        hi = lo + _BLOCK
        yield lo, x[lo:hi].astype(np.float64, copy=False), y[lo:hi].astype(np.float64, copy=False)


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Stacked matmul gives the bits of a 1-D x[i] @ y[i]; einsum does not.
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _check_nonzero(nx: np.ndarray, ny: np.ndarray, first: int = 0) -> None:
    bad = np.flatnonzero((nx == 0) | (ny == 0))
    if bad.size:
        raise ValueError(f"zero-norm embedding at pair index {first + int(bad[0])}")


def _row_cosines(x: np.ndarray, y: np.ndarray, first: int = 0):
    """Clipped cosines of paired float64 rows and both row norms; row 0 is pair ``first``."""
    nx, ny = np.sqrt(_rowdot(x, x)), np.sqrt(_rowdot(y, y))
    _check_nonzero(nx, ny, first)
    return np.clip(_rowdot(x, y) / (nx * ny), -1.0, 1.0), nx, ny


def _mean(values: np.ndarray) -> float:
    # Summed left to right, as a per-pair loop sums; numpy's pairwise
    # summation rounds differently and would change the reported bits.
    return sum(values.tolist()) / len(values)


def cosine_similarity(a: ArrayLike, b: ArrayLike) -> float:
    """Cosine of the angle between two vectors, clipped to [-1, 1]."""
    x, y = _pairs(_as_vector(a, "a"), _as_vector(b, "b"))
    return float(_row_cosines(x, y)[0][0])


@dataclass(frozen=True)
class RegressionLossParams:
    """Weights for the combined loss: alpha scales the direction (cosine)
    term, beta the magnitude (mean squared error) term."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.alpha + self.beta == 0:
            raise ValueError("alpha + beta must be positive")


@dataclass(frozen=True)
class RegressionLoss:
    total: float
    cosine_term: float
    mse_term: float

    def to_dict(self) -> dict:
        return asdict(self)


def regression_loss(
    pred: Rows, target: Rows, p: RegressionLossParams | None = None
) -> RegressionLoss:
    """alpha * (1 - cosine(pred, target)) + beta * mean((pred - target)^2), each
    term averaged over the index-paired rows of two sets, or over one vector pair."""
    p = p or RegressionLossParams()
    x, y = _pairs(pred, target)
    cos_term, mse_term = np.empty(len(x)), np.empty(len(x))
    for lo, a, b in _blocks(x, y):
        cos_term[lo : lo + len(a)] = p.alpha * (1.0 - _row_cosines(a, b, lo)[0])
        mse_term[lo : lo + len(a)] = p.beta * np.mean((a - b) ** 2, axis=1)
    return RegressionLoss(_mean(cos_term + mse_term), _mean(cos_term), _mean(mse_term))


def regression_loss_grad(
    pred: ArrayLike, target: ArrayLike, p: RegressionLossParams | None = None
) -> np.ndarray:
    """Analytic gradient of regression_loss for one pair, with respect to ``pred``.

    d/dp [alpha (1 - p.t / (|p||t|))] = alpha (cos * p / |p|^2 - t / (|p||t|))
    d/dp [beta/N sum (p - t)^2]       = 2 beta / N * (p - t)
    """
    p = p or RegressionLossParams()
    x, y = _pairs(_as_vector(pred, "pred"), _as_vector(target, "target"))
    (cos,), (np_norm,), (nt_norm,) = _row_cosines(x, y)
    vp, vt = x[0], y[0]
    grad_cos = p.alpha * (cos * vp / np_norm**2 - vt / (np_norm * nt_norm))
    grad_mse = (2.0 * p.beta / vp.size) * (vp - vt)
    return grad_cos + grad_mse


def population_std(embeddings: Rows) -> np.ndarray:
    """Per-dimension sample standard deviation (n-1 denominator)."""
    m = _as_rows(embeddings).astype(np.float64, copy=False)
    if m.shape[0] < 2:
        raise ValueError("population_std needs at least 2 vectors")
    return np.std(m, axis=0, ddof=1)


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise-then-mask-then-shuffle corruption settings.

    ``noise_scale`` multiplies a per-dimension std basis (typically the
    empirical std of a reference population) to set the additive Gaussian
    noise level; ``mask_rate`` zeroes each coordinate independently;
    ``shuffle`` applies a uniform random permutation. Defaults follow the
    robustness ablation settings: 0.5 noise, 25% masking, shuffling on.
    """

    noise_scale: float = 0.5
    mask_rate: float = 0.25
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ValueError(f"mask_rate must be in [0, 1], got {self.mask_rate}")

    @property
    def is_identity(self) -> bool:
        return self.noise_scale == 0 and self.mask_rate == 0 and not self.shuffle


def _item_rng(seed: int, item_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _U64, 0, item_index]))


def _order_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _U64, 1]))


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


def perturb(
    z: ArrayLike, std_basis: ArrayLike, spec: PerturbationSpec, item_index: int = 0
) -> np.ndarray:
    """Corrupt one embedding: add scaled noise, mask, then shuffle coordinates.

    Bitwise deterministic in (spec.seed, item_index); the identity spec
    returns an unmodified copy. Output dtype matches the input when it is a
    float array, otherwise float64.
    """
    v = np.asarray(z)
    out_dtype = v.dtype if np.issubdtype(v.dtype, np.floating) else np.float64
    if v.ndim != 1 or v.size < 1:
        raise ValueError("embedding must be a non-empty 1-D vector")
    basis = _as_vector(std_basis, "std_basis")
    if basis.shape != v.shape:
        raise ValueError(
            f"std_basis dimension {basis.shape[0]} does not match embedding "
            f"dimension {v.shape[0]}"
        )
    if spec.is_identity:
        return np.array(v, dtype=out_dtype, copy=True)
    return _perturb_row(v, basis, spec, item_index, coord_shuffle=True).astype(out_dtype)


def perturb_set(
    embeddings: EmbeddingSet,
    std_basis: ArrayLike,
    spec: PerturbationSpec,
    shuffle_mode: str = "coords",
    threads: int = 1,
) -> EmbeddingSet:
    """Apply perturb to every vector of a set.

    ``shuffle_mode`` selects what the shuffle stage permutes: "coords"
    shuffles coordinates within each vector, "sequence" permutes the order
    of the vectors themselves (ids travel with their rows). Each row owns
    its random stream. ``threads`` is accepted for compatibility and ignored.
    """
    if shuffle_mode not in ("coords", "sequence"):
        raise ValueError(f"shuffle_mode must be 'coords' or 'sequence', got {shuffle_mode!r}")
    basis = _as_vector(std_basis, "std_basis")
    if basis.shape[0] != embeddings.dim:
        raise ValueError(
            f"std_basis dimension {basis.shape[0]} does not match embedding "
            f"dimension {embeddings.dim}"
        )
    if spec.is_identity or len(embeddings) == 0:
        return EmbeddingSet(
            embeddings.vectors.copy(),
            list(embeddings.ids) if embeddings.ids is not None else None,
        )

    coord_shuffle = shuffle_mode == "coords"
    rows = embeddings.vectors
    out = [
        _perturb_row(rows[i], basis, spec, i, coord_shuffle)
        for i in range(len(rows))
    ]
    result = np.stack(out).astype(embeddings.vectors.dtype)
    ids = list(embeddings.ids) if embeddings.ids is not None else None
    if spec.shuffle and shuffle_mode == "sequence":
        order = _order_rng(spec.seed).permutation(len(result))
        result = result[order]
        if ids is not None:
            ids = [ids[i] for i in order]
    return EmbeddingSet(result, ids)


def rescale_latent(z: ArrayLike, factor: float) -> np.ndarray:
    """Multiply every coordinate by a constant factor."""
    if not np.isfinite(factor):
        raise ValueError(f"factor must be finite, got {factor}")
    return np.asarray(z, dtype=np.float64) * factor


def add_noise(z: ArrayLike, sigma: float, seed: int = 0) -> np.ndarray:
    """Add i.i.d. Gaussian noise with standard deviation sigma, seeded."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    v = np.asarray(z, dtype=np.float64)
    if sigma == 0:
        return v.copy()
    rng = np.random.default_rng(np.random.SeedSequence([seed & _U64, 2]))
    return v + rng.standard_normal(v.shape) * sigma


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
    """Sample mean and unbiased covariance of an embedding population."""
    m = _as_rows(embeddings).astype(np.float64, copy=False)
    if m.shape[0] < 2:
        raise ValueError("fit_moments needs at least 2 vectors")
    mean = m.mean(axis=0)
    cov = np.atleast_2d(np.cov(m, rowvar=False, ddof=1))
    return GaussianMoments(mean, cov)


def _psd_sqrt(c: np.ndarray, stage: str) -> np.ndarray:
    try:
        w, v = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition failed during {stage}") from exc
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def frechet_distance(
    a: GaussianMoments, b: GaussianMoments, jitter: float = 1e-6
) -> float:
    """Squared 2-Wasserstein distance between two Gaussians.

    |mu_a - mu_b|^2 + Tr(C_a + C_b - 2 (C_a C_b)^{1/2}), with the matrix
    square root taken through the symmetric form C_a^{1/2} C_b C_a^{1/2}
    and negative eigenvalues clamped to zero. ``jitter`` is added to both
    covariance diagonals to stabilise near-singular inputs; pass 0.0 when
    the moments are exact. The result is clamped to be non-negative.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    eye = np.eye(a.dim)
    ca = a.covariance + jitter * eye
    cb = b.covariance + jitter * eye

    diff = a.mean - b.mean
    mean_term = float(diff @ diff)
    if not np.isfinite(mean_term):
        raise ValueError("non-finite value in the mean term")

    sqrt_ca = _psd_sqrt(ca, "covariance square root")
    if not np.all(np.isfinite(sqrt_ca)):
        raise ValueError("non-finite value in the covariance square root")

    inner = sqrt_ca @ cb @ sqrt_ca
    inner = (inner + inner.T) / 2.0
    try:
        eigvals = np.linalg.eigvalsh(inner)
    except np.linalg.LinAlgError as exc:
        raise ValueError("eigendecomposition failed during the trace term") from exc
    if not np.all(np.isfinite(eigvals)):
        raise ValueError("non-finite value in the trace term")
    trace_cross = 2.0 * float(np.sum(np.sqrt(np.clip(eigvals, 0.0, None))))

    value = mean_term + float(np.trace(ca) + np.trace(cb)) - trace_cross
    if not np.isfinite(value):
        raise ValueError("non-finite value in the final distance")
    return max(0.0, value)


def clip_t_score(text_embs: Rows, image_embs: Rows, scale: str = "raw") -> float:
    """Mean cosine similarity over index-paired text/image embeddings.

    ``scale`` is "raw" for the bare mean or "percent" for the conventional
    x100 reporting scale.
    """
    if scale not in ("raw", "percent"):
        raise ValueError(f"scale must be 'raw' or 'percent', got {scale!r}")
    t, v = _pairs(text_embs, image_embs, ("text embeddings", "image embeddings"))
    t, v = t.astype(np.float64, copy=False), v.astype(np.float64, copy=False)
    tn = np.linalg.norm(t, axis=1)
    vn = np.linalg.norm(v, axis=1)
    _check_nonzero(tn, vn)
    cosines = np.clip(np.einsum("ij,ij->i", t, v) / (tn * vn), -1.0, 1.0)
    mean = float(cosines.mean())
    return mean * 100.0 if scale == "percent" else mean


@dataclass(frozen=True, eq=False)
class FlowSample:
    """A predicted drift vector paired with the ideal drift at one point."""

    predicted_drift: np.ndarray
    target_drift: np.ndarray

    def __post_init__(self):
        pred, target = _pairs(
            _as_vector(self.predicted_drift, "predicted_drift"),
            _as_vector(self.target_drift, "target_drift"),
        )
        object.__setattr__(self, "predicted_drift", pred[0])
        object.__setattr__(self, "target_drift", target[0])


def flow_loss(pred: Rows, target: Rows) -> float:
    """Mean squared L2 distance between predicted and target drifts, over the
    index-paired rows of two sets, or over one vector pair."""
    x, y = _pairs(pred, target)
    sq = np.empty(len(x))
    for lo, a, b in _blocks(x, y):
        d = a - b
        sq[lo : lo + len(d)] = _rowdot(d, d)
    return _mean(sq)


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
