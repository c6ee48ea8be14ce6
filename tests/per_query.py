"""Per-query references that tests compare simworld's array passes with."""

import numpy as np


def box_from_x(spec, x):
    """The ground-truth box of features ``x``, a tuple, computed for this
    one query: each map applied as ``map @ x``, the rest in Python floats."""
    cx, cy = (0.5 + 0.45 * np.tanh(spec.box_center_map @ x)).tolist()
    w, h = (0.2 + 0.1 * np.tanh(spec.box_size_map @ x)).tolist()
    return (max(0.0, cx - w / 2.0), max(0.0, cy - h / 2.0),
            min(1.0, cx + w / 2.0), min(1.0, cy + h / 2.0))
