"""Per-query and unfused references that tests compare the array passes
and fused tape nodes with."""

import numpy as np

from toolselect import diffcore as dc


def box_from_x(spec, x):
    """The ground-truth box of features ``x``, a tuple, computed for this
    one query: each map applied as ``map @ x``, the rest in Python floats."""
    cx, cy = (0.5 + 0.45 * np.tanh(spec.box_center_map @ x)).tolist()
    w, h = (0.2 + 0.1 * np.tanh(spec.box_size_map @ x)).tolist()
    return (max(0.0, cx - w / 2.0), max(0.0, cy - h / 2.0),
            min(1.0, cx + w / 2.0), min(1.0, cy + h / 2.0))


def attend_chain(query_rows, keys, values):
    """``dc.attend`` as the chain of tape nodes it fuses: transpose, product,
    scale, softmax, product."""
    product = dc.matmul if keys.data.ndim == 2 else dc.bmm
    logits = dc.scale(product(query_rows, dc.transpose(keys)), 1.0 / np.sqrt(keys.data.shape[-1]))
    return product(dc.softmax_rows(logits), values)
