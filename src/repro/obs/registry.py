"""MetricsRegistry: one snapshot surface over every collector.

The repo grew three collectors (``PipelineMetrics``, ``FederationMetrics``,
``TrafficTrace``) plus the span store — each with its own ``snapshot()``
shape.  The registry is the facade that names them and exposes one
``snapshot()`` and one flattened text exposition, which
``repro.bench.report`` renders and the ``repro trace`` CLI prints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple


class MetricsRegistry:
    """Named sources, each answering ``snapshot() -> dict``."""

    def __init__(self) -> None:
        self._sources: Dict[str, Any] = {}

    def register(self, name: str, source: Any) -> None:
        """Attach a snapshot-capable source under ``name``."""
        if not hasattr(source, "snapshot"):
            raise TypeError(f"source {name!r} has no snapshot()")
        if name in self._sources:
            raise ValueError(f"source {name!r} already registered")
        self._sources[name] = source

    def sources(self) -> List[str]:
        return sorted(self._sources)

    def items(self) -> List[Tuple[str, Any]]:
        """``(name, source)`` pairs, sorted by name."""
        return [(name, self._sources[name]) for name in self.sources()]

    def snapshot(self) -> Dict[str, dict]:
        """``{source_name: source.snapshot()}`` over every source."""
        return {name: self._sources[name].snapshot()
                for name in self.sources()}

    def flattened(self) -> List[Tuple[str, Any]]:
        """Sorted ``(dotted.key, leaf_value)`` pairs over the snapshot."""
        pairs: List[Tuple[str, Any]] = []

        def walk(prefix: str, value: Any) -> None:
            if isinstance(value, dict):
                for key in sorted(value, key=str):
                    walk(f"{prefix}.{key}", value[key])
            else:
                pairs.append((prefix, value))

        for name, snap in self.snapshot().items():
            walk(name, snap)
        return pairs
