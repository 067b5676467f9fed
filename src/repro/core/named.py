"""Named objects: how a ``{name, params}`` object becomes a built one.

Every dial of a scenario reaches its builder as a name plus parameters:
a protocol id, a distribution or arrival family, a retry or admission
policy, a channel model, an adaptive jamming strategy, a participant
adversary.  This module holds the one decision all of them share, and
what a bad one raises:

* :class:`ScenarioError` - the error every malformed spec raises;
* :class:`Registry` - a name -> entry table whose lookup refuses
  unknown and non-string names with one message,
  ``unknown <what> <name>; known: <sorted names>``;
* :class:`Params` - a builder's parameters, read strictly:
  :meth:`Params.take` checks each value against the type the builder
  names, without coercing, and :meth:`Params.done` refuses the keys no
  builder took.

Standard library only, so the channel models, the open system and the
scenario specs can all share it.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping

__all__ = ["ScenarioError", "Registry", "Params"]


class ScenarioError(ValueError):
    """Raised for malformed or unresolvable scenario specifications."""


#: ``int`` parameters must fit the engines' int64 arrays.
_INT64 = 2**63

#: Message wording of each type :meth:`Params.check` knows by name.
_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    list: "a list",
}

_REQUIRED = object()


class Registry(dict):
    """A name -> entry table with one error for a bad name.

    ``what`` names the kind of entry in messages (``"protocol"``,
    ``"arrival family"``).  Indexing with an unknown name, or with
    anything but a string, raises :class:`ScenarioError` listing the
    known names; :meth:`register` refuses duplicates.
    """

    def __init__(self, what: str, entries: Mapping | None = None) -> None:
        super().__init__(entries or {})
        self.what = what

    def __getitem__(self, name):
        if isinstance(name, str) and name in self:
            return super().__getitem__(name)
        raise ScenarioError(
            f"unknown {self.what} {name!r}; known: {', '.join(sorted(self))}"
        )

    def register(self, name: str, entry):
        """Add ``entry`` under a new ``name``; returns the entry."""
        if name in self:
            raise ScenarioError(f"{self.what} {name!r} already registered")
        super().__setitem__(name, entry)
        return entry

    def build(self, name, params: Mapping):
        """Entry ``name`` called on a :class:`Params` reader over ``params``.

        Every key must be taken by the entry, or :meth:`Params.done`
        refuses the rest.
        """
        entry = self[name]
        reader = Params(params, f"{self.what} {name!r}")
        built = entry(reader)
        reader.done()
        return built


class Params(dict):
    """One builder's parameters, read strictly.

    ``what`` names their owner in messages (``"protocol 'decay'"``).  A
    builder :meth:`take`\\ s each parameter with its type; whoever called
    the builder then calls :meth:`done`, which refuses what is left.
    """

    def __init__(self, data: object, what: str) -> None:
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"{what} params must be a mapping, got {type(data).__name__}"
            )
        super().__init__(data)
        self.what = what

    def take(self, key: str, kind: type, default=_REQUIRED):
        """Remove ``key`` and return its value checked as ``kind``.

        An absent key returns ``default``, or is an error when there is
        none.  Where the default is ``None``, a null value means absent.
        """
        if key not in self:
            if default is _REQUIRED:
                raise ScenarioError(f"{self.what} requires parameter {key!r}")
            return default
        value = self.pop(key)
        if value is None and default is None:
            return None
        return self.check(value, kind, f"{self.what} parameter {key!r}")

    def done(self) -> None:
        """Refuse every key no :meth:`take` consumed."""
        if self:
            raise ScenarioError(
                f"unknown parameter(s) for {self.what}: "
                f"{', '.join(sorted(map(str, self)))}"
            )

    @staticmethod
    def check(value, kind: type, label: str):
        """``value`` as a ``kind``, or a :class:`ScenarioError` naming ``label``.

        A bool is only ever a flag and a flag only ever a bool.  ``int``
        takes integers and integral floats within int64; ``float`` takes
        any real number; ``list`` takes lists and tuples.  Any other
        ``kind`` is an ``isinstance`` check (``object`` takes anything).
        Strings are never numbers.
        """
        if isinstance(value, bool) != (kind is bool) and kind is not object:
            pass  # a bool where no flag belongs, or a flag that is no bool
        elif kind is int:
            if isinstance(value, numbers.Integral) or (
                isinstance(value, float) and value.is_integer()
            ):
                number = int(value)
                if -_INT64 <= number < _INT64:
                    return number
                raise ScenarioError(f"{label} must fit in int64, got {number}")
        elif kind is float:
            if isinstance(value, numbers.Real):
                try:
                    return float(value)
                except OverflowError:
                    raise ScenarioError(
                        f"{label} must fit in a float, got {value!r}"
                    ) from None
        elif kind is list:
            if isinstance(value, (list, tuple)):
                return list(value)
        elif isinstance(value, kind):
            return value
        raise ScenarioError(
            f"{label} must be {_TYPE_NAMES.get(kind, kind.__name__)}, got "
            f"{type(value).__name__} {value!r}"
        )
