"""Small shared helpers: canonical JSON."""

import json

import numpy as np


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return 0.0 if v == 0.0 else v  # normalize -0.0
    return obj


def dumps(obj):
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
