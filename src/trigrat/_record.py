"""Record classes with value equality, written without ``dataclasses``.

Importing ``dataclasses`` loads ``inspect`` (and with it ``ast``, ``dis``
and ``tokenize``), and each dataclass execs its generated methods; for a
fresh ``trigrat`` process that was about a third of its import time.  A
record class lists its fields in ``__slots__``, in order, and writes its
own ``__init__``.  The bases here give it, over those fields:

* equality with records of the same class only (``NotImplemented``
  otherwise, so a record never equals a tuple or another record class);
* a repr such as ``Angle(p=1, q=3)``;
* ``__reduce__``, which calls the class again with the field values, so
  ``copy``, ``deepcopy`` and ``pickle`` go through ``__init__``.

``Record`` is mutable and unhashable.  ``FrozenRecord`` adds a hash over the
fields and refuses assignment and deletion with ``AttributeError``; its
``__init__`` sets each field once through ``object.__setattr__``.

The bases live outside the layer modules: ``perfbench/tracer.py`` wraps the
public dunders that a layer module's own classes define, so a record's
``__init__`` is traced and the inherited ``__eq__`` is not a span of its layer.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Equality, repr and reduction over the fields named in ``__slots__``
    (two or more, so that ``_values`` returns a tuple)."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class FrozenRecord(Record):
    """A ``Record`` whose fields are set once, in ``__init__``, and hashed."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))
