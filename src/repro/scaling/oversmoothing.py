"""Over-smoothing diagnostics (the mechanism behind Fig. 5 / Sec. IV-C).

Over-smoothing (Chen et al., AAAI 2020) is the collapse of node features
toward each other as message-passing depth grows — the paper's stated
hypothesis for why GNNs deeper than three layers lose accuracy even at
0.4 TB of data.  The standard diagnostic is MAD (mean average distance):
the mean pairwise cosine distance between node features within a graph.
Monotonically decreasing MAD across layers is the over-smoothing
signature; this module measures it on real forward passes.
"""

from __future__ import annotations

import numpy as np

from repro.graph.batch import GraphBatch
from repro.models.egnn import EdgeGeometry, EGNNBackbone
from repro.tensor.core import Tensor, no_grad


def mean_average_distance(features: np.ndarray, node_graph: np.ndarray) -> float:
    """MAD: mean pairwise cosine distance of node features, per graph.

    Computed exactly per graph and averaged over graphs (graphs in a
    batch must not blend, or cross-graph variance would hide collapse).
    """
    total = 0.0
    count = 0
    for graph_id in np.unique(node_graph):
        block = features[node_graph == graph_id]
        if block.shape[0] < 2:
            continue
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        normalized = block / np.maximum(norms, 1e-12)
        cosine = normalized @ normalized.T
        distance = 1.0 - cosine
        off_diagonal = distance[~np.eye(distance.shape[0], dtype=bool)]
        total += float(off_diagonal.mean())
        count += 1
    if count == 0:
        return float("nan")
    return total / count


def layerwise_features(backbone: EGNNBackbone, batch: GraphBatch) -> list[np.ndarray]:
    """Node features after the embedding and after every EGNN layer."""
    arrays = backbone.inputs(batch)
    geometry = EdgeGeometry(arrays, batch.num_nodes)
    with no_grad():
        h = backbone.embedding(arrays["atomic_numbers"])
        x = Tensor(arrays["x0"])
        features = [h.numpy().copy()]
        for layer in backbone.layers:
            h, x = layer(h, x, geometry)
            features.append(h.numpy().copy())
    return features


def mad_profile(backbone: EGNNBackbone, batch: GraphBatch) -> list[float]:
    """MAD after the embedding and after each layer (length depth+1)."""
    return [
        mean_average_distance(features, batch.node_graph)
        for features in layerwise_features(backbone, batch)
    ]


def oversmoothing_slope(mad_values: list[float]) -> float:
    """Mean per-layer change in MAD (negative = feature collapse)."""
    values = np.asarray(mad_values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size < 2:
        return float("nan")
    return float(np.diff(values).mean())
