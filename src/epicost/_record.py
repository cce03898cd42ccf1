"""Immutable value records: the package's frozen classes, without ``dataclasses``.

A record class lists its fields as class annotations, after those of the
record it extends, and a class attribute of a field's name is that
field's default. Construction takes the fields by position or keyword,
with the ``TypeError`` messages of a generated ``__init__``, then calls
``__post_init__`` to validate. Records compare equal, and hash, by their
class and field values; assignment and deletion raise ``AttributeError``;
the ``repr`` is ``Name(field=value, ...)`` without the fields named in
``_unshown``. They pickle as plain instances. ``_replace`` copies one
with some fields changed (validating the copy) and ``_asdict`` maps
field names to values, one level deep.

The ``dataclasses`` module this replaces imports ``inspect`` and builds
each class's methods with ``exec``, which took a third of the package's
import time.
"""


class Record:
    """Base of an immutable record; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _unshown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(n for n in own if n not in cls._fields)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        where = f"{cls.__qualname__}.__init__()"
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[name] = value
        if len(args) > len(fields):
            required = sum(not hasattr(cls, n) for n in fields)
            takes = (f"{len(fields) + 1}" if required == len(fields)
                     else f"from {required + 1} to {len(fields) + 1}")
            raise TypeError(f"{where} takes {takes} positional arguments "
                            f"but {len(args) + 1} were given")
        if len(values) < len(fields):
            missing = [repr(n) for n in fields if n not in values and not hasattr(cls, n)]
            if missing:
                names = (missing[0] if len(missing) == 1 else
                         " and ".join(missing) if len(missing) == 2 else
                         ", ".join(missing[:-1]) + ", and " + missing[-1])
                raise TypeError(f"{where} missing {len(missing)} required positional "
                                f"argument{'s' if len(missing) > 1 else ''}: {names}")
            values = {n: values[n] if n in values else getattr(cls, n) for n in fields}
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[n] for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{n}={self.__dict__[n]!r}" for n in self._fields
                          if n not in self._unshown)
        return f"{type(self).__qualname__}({shown})"

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})
