"""Input featurization: species vocabulary and radial basis expansion."""

from __future__ import annotations

import numpy as np


class SpeciesVocabulary:
    """Maps atomic numbers to dense indices for the embedding table.

    The aggregated corpus spans organic elements and transition metals; a
    fixed vocabulary over Z = 1..94 keeps every source compatible with one
    foundation model, as in the paper's multi-source training.
    """

    def __init__(self, max_z: int = 94) -> None:
        self.max_z = max_z

    @property
    def size(self) -> int:
        return self.max_z + 1  # index 0 reserved (no element)

    def encode(self, atomic_numbers: np.ndarray) -> np.ndarray:
        z = np.asarray(atomic_numbers, dtype=np.int64)
        if z.size and (z.min() < 1 or z.max() > self.max_z):
            raise ValueError(f"atomic numbers outside [1, {self.max_z}]")
        return z


def gaussian_rbf(distances: np.ndarray, cutoff: float, num_basis: int = 16) -> np.ndarray:
    """Expand distances onto ``num_basis`` Gaussians spanning ``[0, cutoff]``.

    The standard distance featurization for message passing on materials
    (SchNet-style), used by our EGNN's edge network.  The operations of
    ``exp(-0.5 * ((d - c) / width) ** 2)`` run in that order, in place in
    one float64 buffer, so the bits match that expression.
    """
    distances = np.asarray(distances, dtype=np.float64).reshape(-1, 1)
    centers = np.linspace(0.0, cutoff, num_basis).reshape(1, -1)
    width = cutoff / max(num_basis - 1, 1)
    out = np.subtract(distances, centers)
    out /= width
    np.square(out, out=out)
    out *= -0.5
    return np.exp(out, out=out)


def cosine_cutoff(distances: np.ndarray, cutoff: float) -> np.ndarray:
    """Smooth envelope that goes to zero at the cutoff radius.

    Multiplying messages by this envelope makes the model's output a
    continuous function of atom positions even as neighbors enter/leave
    the cutoff sphere.
    """
    distances = np.asarray(distances, dtype=np.float64)
    envelope = 0.5 * (np.cos(np.pi * np.clip(distances / cutoff, 0.0, 1.0)) + 1.0)
    return np.where(distances <= cutoff, envelope, 0.0)
