"""Exception types and report-style validation results shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field


class KnotfoldError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(KnotfoldError):
    """Input text does not parse as any accepted format."""


class NotAPermutation(KnotfoldError):
    """A marker column list is not a permutation of 1..g."""


class SameCellXO(KnotfoldError):
    """A row places both markers in the same column."""


class MultiComponent(KnotfoldError):
    """The diagram describes a link with more than one component."""


class SizeTooSmall(KnotfoldError):
    """Requested grid size is below the minimum of 2."""


class DegenerateCurve(KnotfoldError):
    """A lattice curve collapsed below four corners."""


class FoldCollision(KnotfoldError):
    """A fold produced sticks that pass through each other.

    This never happens for inputs in settled form; raising instead of
    repairing keeps a broken construction from certifying silently.
    """


class ReconnectFailure(KnotfoldError):
    """A broken-stick bridge would intersect existing geometry."""


class CrossingTooSmall(KnotfoldError):
    """Bound formulas in the crossing number require c >= 3."""


class DegenerateKnot(KnotfoldError):
    """Smoothing requires every stick to have length >= 1."""


class BadDensity(KnotfoldError):
    """Polyline export needs 8..4096 sample points per arc."""


class NoRegularShear(KnotfoldError):
    """No candidate shear produced a regular projection: the curve meets itself."""


@dataclass(frozen=True)
class Violation:
    """One violated invariant found by a validator."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass
class ValidationReport:
    """Report-style validation result: empty iff every invariant holds."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str) -> None:
        self.violations.append(Violation(code, message))

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)
