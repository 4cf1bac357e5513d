"""Common base of the report-style predicate results."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Report:
    """A check result that is truthy exactly when the check passed."""

    ok: bool

    def __bool__(self) -> bool:
        return self.ok
