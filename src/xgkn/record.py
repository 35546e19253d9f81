"""Immutable records: what ``@dataclass(frozen=True)`` gave the package's
value classes, by methods they share instead of code generated at import."""

import inspect


class FrozenRecordError(AttributeError):
    """Assigning or deleting an attribute of a record."""


class Record:
    """A subclass's own annotations are its fields, in order, and its class
    values their defaults. ``__init__`` takes the fields by position or
    keyword, then calls ``__post_init__``; eq, hash and repr go by the fields."""

    _fields: dict = {}  # field name -> annotation
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = dict(inspect.get_annotations(cls))
        cls._defaults = {key: cls.__dict__[key] for key in cls._fields if key in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields, defaults, used, name = self._fields, self._defaults, 0, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        for key, value in zip(fields, args):
            if key in kwargs:
                raise TypeError(f"{name}() got multiple values for {key!r}")
            kwargs[key] = value
        for key in fields:
            if key in kwargs:
                value, used = kwargs[key], used + 1
            elif key in defaults:
                value = defaults[key]
            else:
                raise TypeError(f"{name}() missing argument {key!r}")
            object.__setattr__(self, key, value)
        if used < len(kwargs):
            unknown = next(key for key in kwargs if key not in fields)
            raise TypeError(f"{name}() got an unexpected argument {unknown!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, key, value=None):
        raise FrozenRecordError(f"cannot assign to or delete {type(self).__name__}.{key}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __repr__(self):
        pairs = (f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({', '.join(pairs)})"


def fields(record) -> dict:
    """Field name -> annotation of a record or record class, in order."""
    return record._fields


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes``, built and checked anew."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})
