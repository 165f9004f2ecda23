"""Interface definitions and typed client stubs.

CORBA systems declare interfaces in IDL and generate *stubs* (client-side
proxies) and *skeletons* (server-side dispatchers).  This module is the
reproduction's IDL: an :class:`Interface` lists operations with their
arities, :func:`make_stub` builds a stub object whose methods are generator
helpers wrapping :meth:`Orb.invoke`, and :func:`validate_servant` checks a
servant implements an interface before activation.

The two DISCOVER interface levels (§3, §5.1) are declared with this in
:mod:`repro.core.interfaces`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.orb.errors import BadOperation, OrbError

if TYPE_CHECKING:  # pragma: no cover
    from repro.orb.core import Orb
    from repro.orb.reference import ObjectRef


@dataclass(frozen=True)
class Operation:
    """One remotely invocable operation."""

    name: str
    #: positional parameter names (documentation + arity checking)
    params: Tuple[str, ...] = ()
    #: if True the stub issues a oneway (no reply) invocation
    oneway: bool = False
    doc: str = ""


class Interface:
    """An ordered collection of operations."""

    def __init__(self, name: str, operations: Tuple[Operation, ...]) -> None:
        self.name = name
        self._ops: Dict[str, Operation] = {}
        for op in operations:
            if op.name in self._ops:
                raise OrbError(f"duplicate operation {op.name!r} in "
                               f"interface {name!r}")
            self._ops[op.name] = op

    def operation(self, name: str) -> Operation:
        try:
            return self._ops[name]
        except KeyError:
            raise BadOperation(
                f"interface {self.name!r} has no operation {name!r}") from None

    def operations(self) -> Tuple[Operation, ...]:
        return tuple(self._ops.values())

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Interface {self.name} ({len(self._ops)} ops)>"


def validate_servant(servant: object, interface: Interface) -> None:
    """Raise :class:`OrbError` unless ``servant`` implements ``interface``.

    Checks that every declared operation exists, is callable, and accepts
    the declared positional arity (generous with ``*args``/``**kwargs``).
    """
    for op in interface.operations():
        method = getattr(servant, op.name, None)
        if method is None or not callable(method):
            raise OrbError(
                f"{type(servant).__name__} does not implement "
                f"{interface.name}.{op.name}")
        try:
            sig = inspect.signature(method)
        except (TypeError, ValueError):  # pragma: no cover - builtins
            continue
        has_var = any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
                      for p in sig.parameters.values())
        if has_var:
            continue
        positional = [p for p in sig.parameters.values()
                      if p.kind in (p.POSITIONAL_ONLY,
                                    p.POSITIONAL_OR_KEYWORD)]
        required = [p for p in positional if p.default is p.empty]
        if len(required) > len(op.params) or len(positional) < len(op.params):
            raise OrbError(
                f"{type(servant).__name__}.{op.name} arity mismatch: "
                f"interface declares {len(op.params)} parameter(s), "
                f"servant requires {len(required)}")


class Stub:
    """Client-side proxy for one remote object behind an interface.

    Each declared operation becomes a method.  Two-way operations are
    generator helpers (``result = yield from stub.op(...)``); oneway
    operations are plain calls.  Undeclared operations raise
    :class:`BadOperation` locally — before anything crosses the wire.
    """

    def __init__(self, orb: "Orb", ref: "ObjectRef", interface: Interface,
                 timeout: Optional[float] = None) -> None:
        self._orb = orb
        self._ref = ref
        self._interface = interface
        self._timeout = timeout

    @property
    def ref(self) -> "ObjectRef":
        return self._ref

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        op = self._interface.operation(name)  # raises BadOperation
        if op.oneway:
            def oneway_call(*args, **kwargs):
                self._orb.invoke_oneway(self._ref, op.name, *args, **kwargs)
            oneway_call.__name__ = op.name
            return oneway_call

        def call(*args, **kwargs):
            return (yield from self._orb.invoke(
                self._ref, op.name, *args,
                timeout=kwargs.pop("timeout", self._timeout), **kwargs))
        call.__name__ = op.name
        return call

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Stub {self._interface.name} -> {self._ref}>"


def make_stub(orb: "Orb", ref: "ObjectRef", interface: Interface,
              timeout: Optional[float] = None) -> Stub:
    """Build a typed client stub for ``ref``."""
    return Stub(orb, ref, interface, timeout)
