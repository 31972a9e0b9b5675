"""The package's value records: frozen dataclasses in behaviour, without the
cost of building one, which each fresh CLI process would pay per class."""

from operator import attrgetter


class _Record:
    """Immutable fields, compared and hashed as the tuple of their values.

    A subclass names its fields in __slots__, in its __init__'s positional
    order, and sets each there with object.__setattr__. A record equals only
    a record of its own class with equal fields, never a tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)  # a tuple: every record has two fields or more
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a record through its __init__
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
