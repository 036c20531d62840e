"""The base class of the package's immutable records."""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """An immutable record stored in ``__slots__``.

    A subclass lists its attributes in ``__slots__``, constructor arguments
    first and in order, and stores them once with :meth:`_store`; assigning
    or deleting an attribute afterwards raises ``AttributeError``.  Equality
    and the hash use the ``_compared`` attributes and repr shows the
    ``_shown`` ones; pickling and copying pass the first ``_arity`` attributes
    back to the constructor, which validates them again.
    """

    __slots__ = ()
    _arity: int
    _compared: tuple[str, ...]
    _shown: tuple[str, ...]

    def _store(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self, names) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._compared) == other._values(other._compared)

    def __hash__(self) -> int:
        return hash(self._values(self._compared))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: it is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: it is read-only")

    def __reduce__(self):
        return type(self), self._values(self.__slots__[: self._arity])
