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

    `checked` counts individual assertions run, `failures` describes the ones
    that did not hold, `notes` carries informational messages (for example
    documented divergences from published values), and `data` holds optional
    structured results for callers that want more than pass/fail.
    """

    __slots__ = ("name", "checked", "failures", "notes", "data")

    def __init__(self, name: str, checked: int, failures: tuple = (), notes: tuple = (), data: dict = None):
        super().__init__(name, checked, failures, notes, {} if data is None else data)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.checked} checks)"
        return (
            f"FAIL {self.name} ({len(self.failures)} of {self.checked} checks failed; "
            f"first: {self.failures[0]})"
        )
