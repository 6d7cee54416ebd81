"""Naming service: hierarchical names bound to object references.

A miniature CosNaming: names are ``/``-separated paths, contexts are
implicit (created on bind), and rebinding is an explicit, separate
operation so accidental shadowing fails loudly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import NamingError
from repro.middleware.bus import ObjectRefData


class NamingService:
    """Flat store of path-shaped names → :class:`ObjectRefData`."""

    def __init__(self):
        self._bindings: Dict[str, ObjectRefData] = {}
        #: object id -> the name it was last bound under (reverse index)
        self._names: Dict[str, str] = {}

    @staticmethod
    def _normalize(name: str) -> str:
        if not name or not isinstance(name, str):
            raise NamingError(f"invalid name {name!r}")
        parts = [part for part in name.split("/") if part]
        if not parts:
            raise NamingError(f"invalid name {name!r}")
        return "/".join(parts)

    def bind(self, name: str, ref: ObjectRefData) -> None:
        """Bind a fresh name; rejects names already bound."""
        key = self._normalize(name)
        if key in self._bindings:
            raise NamingError(f"name {key!r} is already bound")
        self._bindings[key] = ref
        self._names[ref.object_id] = key

    def rebind(self, name: str, ref: ObjectRefData) -> None:
        """Bind, replacing any existing binding."""
        key = self._normalize(name)
        self._forget(self._bindings.get(key), key)
        self._bindings[key] = ref
        self._names[ref.object_id] = key

    def _forget(self, ref, key: str) -> None:
        if ref is not None and self._names.get(ref.object_id) == key:
            del self._names[ref.object_id]

    def name_of(self, object_id: str):
        """The name ``object_id`` is bound under here (None if none)."""
        return self._names.get(object_id)

    def resolve(self, name: str) -> ObjectRefData:
        key = self._normalize(name)
        try:
            return self._bindings[key]
        except KeyError:
            raise NamingError(f"name {key!r} is not bound") from None

    def unbind(self, name: str) -> None:
        key = self._normalize(name)
        if key not in self._bindings:
            raise NamingError(f"name {key!r} is not bound")
        self._forget(self._bindings.pop(key), key)

    def list(self, prefix: str = "") -> List[str]:
        """All bound names, optionally below a path prefix."""
        if not prefix:
            return sorted(self._bindings)
        key = self._normalize(prefix)
        return sorted(
            name
            for name in self._bindings
            if name == key or name.startswith(key + "/")
        )
