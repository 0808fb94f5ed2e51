"""Frozen value classes without the dataclasses module.

Importing dataclasses imports inspect, ast, dis and tokenize, and each
@dataclass then compiles its methods: about 8 ms of a 17-22 ms package
import (python -I, 2-core x86, Python 3.11).  A one-shot CLI call pays
that on every start, so the package's value classes derive from Record.
"""

from operator import attrgetter

# Record's __setattr__ refuses every write, so a subclass __init__ sets its
# fields through object's.  That keeps them in the instance's inline values:
# reading self.__dict__ turns those into a dict, and CPython 3.11 then reads
# every attribute of the instance two to three times slower.
set_field = object.__setattr__


class Record:
    """Base of a frozen value class.

    A subclass lists its constructor's parameters, in order, in _fields.
    Its __init__ sets them, and any value derived from them, by set_field,
    because assignment and deletion raise AttributeError.  Equality and
    hashing compare the _fields values, between instances of the same
    class; repr is Name(field=value, ...) over _fields; pickle and copy
    rebuild through the constructor, so derived values are computed again.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the field values, or the value of a lone field; an attrgetter is
        # no descriptor, so self._compared is this getter itself
        cls._compared = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared(self) == other._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        pairs = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({pairs})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, name) for name in self._fields])
