"""Settings that the CLI range-checks for every command before it reads any
input: the matching thresholds, the context length and the embedding kernels'
settings. They import nothing but the standard library, so checking them loads
no command's module; ``matching``, ``context`` and ``embedcore`` re-export
their own under the same names."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MatchThresholds", "check_context_length", "check_threads", "RegressionLossParams",
           "PerturbationSpec"]


@dataclass(frozen=True)
class MatchThresholds:
    max_start_diff_s: float = 5.0
    iou_low: float = 0.2
    iou_high: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.iou_low <= self.iou_high <= 1.0:
            raise ValueError(
                f"need 0 <= iou_low <= iou_high <= 1, got "
                f"{self.iou_low}/{self.iou_high}"
            )
        if not math.isfinite(self.max_start_diff_s):
            raise ValueError(f"max_start_diff_s must be finite, got {self.max_start_diff_s}")
        if self.max_start_diff_s < 0:
            raise ValueError(f"max_start_diff_s must be >= 0, got {self.max_start_diff_s}")


def check_context_length(k: int) -> None:
    """Raise ValueError unless k is a context length build_windows accepts."""
    if not 1 <= k <= 3:
        raise ValueError(f"context length k must be in 1..3, got {k}")


def check_threads(threads: int) -> None:
    """Raise ValueError unless threads is a worker count perturb_set accepts."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


@dataclass(frozen=True)
class RegressionLossParams:
    """Weights for the combined loss: alpha scales the direction (cosine)
    term, beta the magnitude (mean squared error) term."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}/{self.beta}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.alpha + self.beta == 0:
            raise ValueError("alpha + beta must be positive")


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise-then-mask-then-shuffle corruption settings.

    ``noise_scale`` multiplies a per-dimension std basis (typically the
    empirical std of a reference population) to set the additive Gaussian
    noise level; ``mask_rate`` zeroes each coordinate independently;
    ``shuffle`` applies a uniform random permutation; ``seed``, in [0, 2**64),
    picks the random streams. Defaults follow the robustness ablation
    settings: 0.5 noise, 25% masking, shuffling on.
    """

    noise_scale: float = 0.5
    mask_rate: float = 0.25
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.noise_scale):
            raise ValueError(f"noise_scale must be finite, got {self.noise_scale}")
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ValueError(f"mask_rate must be in [0, 1], got {self.mask_rate}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
