"""Record: the immutable value class behind every result and configuration.

A subclass's fields are its own class annotations, in order.  Its __init__
is generated once, when the class is created, as collections.namedtuple
does, so a construction costs one call that sets each field by
object.__setattr__ and then runs __post_init__ if the class defines one.
A generic __init__(*args, **kwargs) would cost far more per record, and
some laws build one record per element.  `dataclasses` generates the same
methods, but importing it and decorating the classes took about half of the
package's import time.
"""

from __future__ import annotations


class Record:
    """Base of a frozen value class with fields from its annotations.

    Construction is positional or by keyword; assignment and deletion raise
    AttributeError; equality and hash go by field, or by identity for a
    class declared `class X(Record, eq=False)`.  `_fields` names the
    fields, and replace(**changes) builds a copy through __init__, so
    __post_init__ checks it again.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", {}))
        args = ", ".join(fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {"_set": object.__setattr__}
        exec(f"def __init__(self, {args}):\n{body or '    pass'}\n", namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls._fields = fields
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields) + ")")

    def replace(self, **changes):
        """A copy with the given fields changed, checked by __post_init__."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})
