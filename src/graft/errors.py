"""Exception types shared across the package."""

from __future__ import annotations


class GraftError(Exception):
    """Base class for all domain errors raised by this package."""


class GraphFormatError(GraftError):
    """A graph document is malformed or references unknown node ids."""


class GraphValidationError(GraftError):
    """A structurally invalid graph was passed where a clean one is required.

    Carries the full validation report so callers can surface every violation.
    """

    def __init__(self, report):
        self.report = report
        lines = "; ".join(v.message for v in report.violations)
        super().__init__(f"invalid graph: {lines}")


class BuildError(GraftError):
    """A substrate build stage failed. ``stage`` names the failing stage."""

    def __init__(self, stage: str, message: str, witness=None):
        self.stage = stage
        self.witness = witness
        super().__init__(f"[{stage}] {message}")


class RuleSupportError(GraftError):
    """An operator application left (or would need) empty support.

    ``offender`` carries the (distribution, target) pair, and ``rule_hint``
    the rule text when the failure happened while composing fired rules.
    """

    def __init__(self, message: str, offender=None, rule_hint: str | None = None):
        self.offender = offender
        self.rule_hint = rule_hint
        super().__init__(message)


class EnumerationCapError(GraftError):
    """The joint support exceeds the configured enumeration cap."""


class SupportExhaustedError(GraftError):
    """The avoid set covers the entire positive-probability support."""


class ResolutionSearchError(GraftError):
    """No grid resolution up to the hard cap separates all tree nodes."""


class FingerprintError(GraftError):
    """Invalid fingerprint construction or incompatible fingerprint pair."""


class VersionMismatchError(GraftError):
    """Artifacts produced against different tree versions were mixed."""


class StalePathError(GraftError):
    """A recorded method path references nodes absent from the current tree."""


class EmptyMemoryError(GraftError):
    """An empty or missing memory file was loaded without the tree versions it needs."""
