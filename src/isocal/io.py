"""Curve files and content hashing.

Format: `{"vertices": [[..], ..], "closed": true}` with an optional
`"space"` key of "euclidean" (default, 2-vectors), "sphere" (unit
3-vectors) or "hyperbolic" (hyperboloid 3-vectors).  Reports reference
curves by the sha256 of their canonical serialisation, so formatting and key
order never change the hash.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from .curves import ClosedCurve, CurveError
from .spaces import HyperbolicCurve, SphericalCurve

_CURVES = {c.geometry.tag: c
           for c in (ClosedCurve, SphericalCurve, HyperbolicCurve)}
SPACES = tuple(_CURVES)


def curve_from_dict(data: dict):
    if not isinstance(data, dict):
        raise CurveError("curve file must contain a JSON object")
    if data.get("closed") is not True:
        raise CurveError('curve file must set "closed": true')
    space = data.get("space", "euclidean")
    if space not in SPACES:
        raise CurveError(f'unknown "space": {space!r} (expected one of {SPACES})')
    try:
        rows = data["vertices"]
        vertices = np.asarray(rows, dtype=float)
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise CurveError(f"bad vertex list: {e}") from e
    # JSON numbers only, where np.asarray also reads strings and booleans; a
    # list of another depth fails the curve's shape check
    coords = itertools.chain.from_iterable(rows)
    if vertices.ndim == 2 and not set(map(type, coords)) <= {int, float}:
        raise CurveError("bad vertex list: coordinates must be JSON numbers")
    return _CURVES[space](vertices)


def curve_to_dict(curve) -> dict:
    return {"vertices": curve.vertices.tolist(), "closed": True,
            "space": curve.geometry.tag}


def load_curve(path: str):
    """Parse a curve file; raises CurveError on malformed or off-manifold
    input and json.JSONDecodeError on broken JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        return curve_from_dict(json.load(fh))


def save_curve(curve, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(curve_to_dict(curve), fh, indent=1, sort_keys=True)
        fh.write("\n")


def content_hash(curve) -> str:
    """sha256 over the canonical serialisation of the curve."""
    canon = json.dumps(curve_to_dict(curve), sort_keys=True,
                       separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()
