"""The base of the package's record types.

A record is a slotted class with an explicit ``__init__``.  ``Record``
gives it equality, a hash, a repr, pickling and read-only fields, all
read from its field names: nothing is generated or compiled, so a
record type costs no more to define than any other class.
"""

from __future__ import annotations

from operator import attrgetter

#: How a record's ``__init__`` sets a field past its refusal to assign.
setfield = object.__setattr__


class Record:
    """Equality, hash, repr, pickling and read-only fields for a record.

    A subclass lists its attributes in ``__slots__``: first the
    parameters of its ``__init__``, in their order, then any state it
    derives from them, named with a leading underscore.  A subclass
    whose parameters are not slots names them in ``__match_args__`` and
    reads each through a property.  ``_fields`` names the parameters
    that take part in equality, the hash and the repr; it defaults to
    every parameter.  ``__init__`` sets each attribute with
    ``setfield``.

    Two records are equal when they are of the same type and their
    ``_fields`` are; any other operand gets ``NotImplemented``.  The hash
    is that of the same values.  Assigning or deleting an attribute
    raises ``AttributeError``.  A record pickles and copies as a call of
    its type with its parameters.
    """

    __slots__ = ()
    _fields = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__match_args__" not in vars(cls):
            cls.__match_args__ = tuple(
                name for name in cls.__slots__ if not name.startswith("_"))
        if cls._fields is None:
            cls._fields = cls.__match_args__
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__match_args__)
