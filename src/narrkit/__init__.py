"""Curation and numerical evaluation toolkit for long narrative video corpora.

The package splits into small, independently usable modules:

- ``manifest``: corpus data model, line-delimited manifest I/O, validation
- ``matching``: interval IoU and temporal action-to-clip matching/filtering
- ``stats``: histograms and summary profiles of a corpus
- ``scoring``: human tier rubric and 0-6 rating aggregation
- ``embedcore``: losses, perturbations and distribution metrics over embeddings
- ``embedio``: binary and JSONL embedding file formats
- ``jsonl``: strict line-delimited JSON decoding and field checks for every reader
- ``context``: narrative sequences, histories and rolling conditioning windows
- ``cli``: the ``narrkit`` command-line driver
"""

from .manifest import (
    ActionRecord,
    ClipRecord,
    DatasetManifest,
    ManifestError,
    TimeInterval,
    VideoEntry,
    Violation,
    parse_manifest,
    partition,
    validate_manifest,
    write_manifest,
)
from .matching import (
    FilterPolicy,
    MatchRecord,
    MatchRule,
    MatchThresholds,
    filter_matched,
    interval_iou,
    match_clip_action,
    match_dataset,
)
from .embedcore import (
    EmbeddingSet,
    FlowSample,
    GaussianMoments,
    PerturbationSpec,
    RegressionLossParams,
    add_noise,
    clip_t_score,
    cosine_similarity,
    fit_moments,
    flow_matching_loss,
    frechet_distance,
    perturb,
    perturb_set,
    population_std,
    regression_loss,
    regression_loss_grad,
    rescale_latent,
)
from .embedio import read_embeddings, write_embeddings
from .context import (
    ConditioningWindow,
    NarrativeSequence,
    StepRecord,
    build_history,
    build_windows,
    tile_captions,
)
from .scoring import MatchTier, aggregate_ratings, aggregate_tiers, tier_to_score
from .stats import Histogram, SummaryStats, histogram, summarize

__version__ = "0.1.0"
