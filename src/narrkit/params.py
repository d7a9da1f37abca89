"""Settings for the embedding kernels. They use no numpy, so the CLI range-checks
them for every command; ``embedcore`` re-exports both under the same names."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["RegressionLossParams", "PerturbationSpec"]


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
    ``shuffle`` applies a uniform random permutation. Defaults follow the
    robustness ablation settings: 0.5 noise, 25% masking, shuffling on.
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
