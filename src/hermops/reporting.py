"""Immutable value records, and the result container of the identity checks."""


class Record:
    """Immutable value record over `__slots__`: eq, hash and repr read `_fields`, the public slots by default."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields") or tuple(n for n in cls.__slots__ if n[0] != "_")

    def __init__(self, *values):  # the first len(values) slots, in order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # fills only an empty slot: derived slots, copy and pickle
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


class CheckReport(Record):
    """Outcome of a batch of exact assertions.

    `checked` counts the assertions run (with `tally`, the outcomes a suite
    produced; a report of none fails), `failures` describes the ones that did
    not hold, and `notes` carries informational messages (documented
    divergences from published values, say).
    """

    __slots__ = ("name", "checked", "failures", "notes")

    def __init__(self, name: str, checked: int, failures: tuple = (), notes: tuple = ()):
        super().__init__(name, checked, failures, notes)

    @classmethod
    def tally(cls, name: str, outcomes, notes: tuple = ()) -> "CheckReport":
        """The report of `outcomes`, one per assertion run: None where it held, else its failure message."""
        outcomes = list(outcomes)
        return cls(name, len(outcomes), tuple(o for o in outcomes if o is not None), tuple(notes))

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.checked} checks)"
        if not self.failures:
            return f"FAIL {self.name} (0 checks: nothing was checked)"
        return (
            f"FAIL {self.name} ({len(self.failures)} of {self.checked} checks failed; "
            f"first: {self.failures[0]})"
        )
