"""Range-bearing likelihoods shared by both filters.

The detection likelihood of a measurement z = (r, beta) given a particle
state is a product of Gaussians in range and (wrapped) bearing; the clutter
density is the exact measurement-space density of position-uniform clutter,
clutter_mean * r / |window|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import SensorConfig, to_polar, wrap_angle

# Range floor keeps the clutter density positive for degenerate detections
# whose noisy range came out near zero.
RANGE_FLOOR = 1.0


@dataclass(frozen=True)
class SensorModel:
    cfg: SensorConfig

    @property
    def q_d(self) -> float:
        return 1.0 - self.cfg.p_d

    def tilde_matrix(self, detections: np.ndarray, states: np.ndarray) -> np.ndarray:
        """l~_d(z|x) = p_d * N(r; range(x), sigma_r) * N(beta; bearing(x), sigma_b).

        Returns an (m, N) matrix.
        """
        detections = np.asarray(detections, dtype=float).reshape(-1, 2)
        states = np.asarray(states, dtype=float).reshape(-1, 5)
        polar = to_polar(states)
        dr = detections[:, 0][:, None] - polar[:, 0][None, :]
        db = wrap_angle(detections[:, 1][:, None] - polar[:, 1][None, :])
        sr, sb = self.cfg.sigma_range, self.cfg.sigma_bearing
        norm = 1.0 / (2.0 * math.pi * sr * sb)
        dens = norm * np.exp(-0.5 * (dr / sr) ** 2 - 0.5 * (db / sb) ** 2)
        return self.cfg.p_d * dens

    def clutter_density(self, detections: np.ndarray) -> np.ndarray:
        detections = np.asarray(detections, dtype=float).reshape(-1, 2)
        r = np.maximum(np.abs(detections[:, 0]), RANGE_FLOOR)
        return self.cfg.clutter_mean * r / self.cfg.window.region.area
