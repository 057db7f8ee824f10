"""Frozen value records, defined without code generation.

efdkit does not use dataclasses.  @dataclass(frozen=True) compiles six
methods with exec per class, 0.7-0.9 ms a class on CPython 3.11: 22-30 ms
for the 32 classes of ``import efdkit.cli``.  ``import dataclasses`` adds
about 10 ms for inspect, ast, dis and tokenize, which the CLI needs nowhere else.
"""

import operator

__all__ = ["Record"]

_set = object.__setattr__  # sets a field of a frozen record


class Record:
    """A frozen record whose fields are the names annotated in its class
    body, after those of its Record bases.  Records of one class with equal
    fields are equal; a record hashes as its class with the tuple of its
    fields, so that records of two classes with equal fields hash apart.  The
    generic __init__ takes fields by position or keyword, a missing one
    from the class attribute of that name, then runs __post_init__.  A
    class built on every query declares __slots__ and its own __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _tail: tuple = ()  # the defaults of the last fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)  # this class's own, from Python 3.10 on
        cls._fields = names = cls._fields + own
        cls._tail += tuple(vars(cls)[n] for n in own if n in vars(cls) and n not in cls.__slots__)
        values = operator.attrgetter(*names) if names else lambda self: ()
        if len(names) == 1:  # attrgetter of one name returns the bare value
            values = lambda self, get=values: (get(self),)  # noqa: E731
        cls._values = staticmethod(values)

    def __init__(self, *args, **kwargs):
        names = self._fields
        rest = names[len(args) :]
        if kwargs:
            if not kwargs.keys() <= set(rest):
                raise TypeError(f"{type(self).__name__}: bad keywords {sorted(kwargs)}")
            values = {**dict(zip(names[len(names) - len(self._tail) :], self._tail)), **kwargs}
            args += tuple(values[n] for n in rest if n in values)
        elif rest:
            args += self._tail[-len(rest) :]
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got {args}")
        for name, value in zip(names, args):
            _set(self, name, value)  # not through self.__dict__, which slows every read
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.__class__, self._values(self)))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
