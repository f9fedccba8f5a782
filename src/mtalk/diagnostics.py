"""Diagnostic records: the stable code table, ordering, and rendering."""

from __future__ import annotations

import enum

from .ids import ElementId, SourceSpan, record


class Severity(str, enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


# Stable diagnostic codes. Tools may match on these; messages may evolve.
PARSE = "E000"               # malformed source, bean skipped / detail dropped
UNRESOLVED_CLASS = "E001"    # classRef does not resolve
UNKNOWN_PROPERTY = "E002"    # assignment to a property the class doesn't have
TYPE_MISMATCH = "E003"       # assigned value does not conform to the declared type
CYCLE = "E004"               # parent/subclass/injection cycle
ABSTRACT_INSTANTIATION = "E005"  # runtime: bean marked abstract was instantiated
COVARIANCE = "E006"          # property override widens or diverges from ancestor
CONFORMANCE = "E007"         # non-declarative class disagrees with native manifest
DUPLICATE_ID = "E008"        # element id declared more than once / reserved id taken
UNRESOLVED_PARENT = "E009"   # parentRef does not resolve
INCOMPATIBLE_PARENT = "E010" # parent bean's class is not an ancestor-or-self class
UNRESOLVED_TYPE = "E012"     # property type is neither a builtin scalar nor a class
PROPERTIES_ON_INSTANCE = "E013"  # properties block on a non-class bean
SCHEMA_VIOLATION = "E015"    # document rejected by a generated schema
MANIFEST_ORPHAN = "W001"     # manifest entry with no model class


@record
class Diagnostic:
    severity: Severity
    code: str
    message: str
    span: SourceSpan
    element: ElementId | None = None

    def render(self) -> str:
        base = f"{self.span.path}:{self.span.line}:{self.span.column}: {self.severity}[{self.code}] {self.message}"
        if self.element is not None:
            base += f" ({self.element.render()})"
        return base

    def sort_key(self):
        return (
            self.span.path,
            self.span.line,
            self.span.column,
            self.code,
            self.element.render() if self.element else "",
            self.message,
        )

    def to_dict(self) -> dict:
        return {
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
            "element": self.element.render() if self.element else None,
            "path": self.span.path,
            "line": self.span.line,
            "column": self.span.column,
            "endLine": self.span.end_line,
            "endColumn": self.span.end_column,
        }


def error(code: str, message: str, span: SourceSpan, element: ElementId | None = None) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, element)


def warning(code: str, message: str, span: SourceSpan, element: ElementId | None = None) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, span, element)


def sort_diagnostics(diags) -> list[Diagnostic]:
    """Canonical report order: path, position, code; exact duplicates collapse."""
    seen = set()
    out = []
    for d in sorted(diags, key=Diagnostic.sort_key):
        k = (d.severity, *d.sort_key(), d.span.end_line, d.span.end_column)
        if k in seen:
            continue
        seen.add(k)
        out.append(d)
    return out


def has_errors(diags) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)
