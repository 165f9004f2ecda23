"""Visualization pool service — §4.1's "visualization" auxiliary handler.

"In addition to these core handlers, there can be a number of handlers
providing auxiliary services such as session archival, database handling,
visualization, request redirection ..." (§4.1).  Visualization is heavy
(the §6.2 worry about "large virtual reality collaborative environments
where 3D data is involved"), so we follow the pool-of-services model: a
shared :class:`VisualizationService` any server or client can discover via
the trader and call with raw field data, getting back a downsampled view
plus summary statistics — a fraction of the bytes of the full field.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


class VisualizationError(Exception):
    """Bad field data or render parameters."""


def downsample(field: np.ndarray, width: int, height: int = 1) -> np.ndarray:
    """Block-average ``field`` (1-D or 2-D) to ``width`` (× ``height``).

    Upsampling requests are clamped to the field's own resolution.
    """
    if field.ndim == 1:
        width = min(width, field.size)
        edges = np.linspace(0, field.size, width + 1).astype(int)
        return np.array([field[a:b].mean() if b > a else field[min(a, field.size - 1)]
                         for a, b in zip(edges, edges[1:])])
    if field.ndim == 2:
        height = min(height, field.shape[0])
        width = min(width, field.shape[1])
        r_edges = np.linspace(0, field.shape[0], height + 1).astype(int)
        c_edges = np.linspace(0, field.shape[1], width + 1).astype(int)
        out = np.empty((height, width))
        for i, (r0, r1) in enumerate(zip(r_edges, r_edges[1:])):
            for j, (c0, c1) in enumerate(zip(c_edges, c_edges[1:])):
                block = field[r0:max(r1, r0 + 1), c0:max(c1, c0 + 1)]
                out[i, j] = block.mean()
        return out
    raise VisualizationError(f"cannot render {field.ndim}-D field")


#: ASCII shades from the field's minimum to its maximum
PALETTE = " .:-=+*#%@"


def ascii_render(view: np.ndarray) -> List[str]:
    """Render a (downsampled) view as ASCII art lines — the portal's
    terminal 'display'."""
    arr = np.atleast_2d(np.asarray(view, dtype=float))
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo if hi > lo else 1.0
    idx = ((arr - lo) / span * (len(PALETTE) - 1)).round().astype(int)
    return ["".join(PALETTE[v] for v in row) for row in idx]


class VisualizationService:
    """Shared rendering service in the service pool."""

    SERVICE_ID = "VISUALIZATION"

    def __init__(self) -> None:
        self.renders = 0

    def ping(self) -> str:
        return "visualization"

    def render(self, field: np.ndarray, width: int = 32,
               height: int = 1) -> dict:
        """Downsample + summarize a field.

        Returns the reduced view (as an ndarray, wire-encodable) plus the
        statistics portals display alongside it.
        """
        if width < 1 or height < 1:
            raise VisualizationError("width/height must be >= 1")
        field = np.asarray(field, dtype=float)
        view = downsample(field, width, height)
        self.renders += 1
        return {
            "view": view,
            "shape": list(field.shape),
            "min": float(field.min()),
            "max": float(field.max()),
            "mean": float(field.mean()),
            "reduction": field.size / max(1, view.size),
        }

    def render_ascii(self, field: np.ndarray, width: int = 32,
                     height: int = 8) -> dict:
        """Like :meth:`render` but with terminal-ready ASCII lines."""
        result = self.render(field, width, height)
        result["ascii"] = ascii_render(result["view"])
        return result
