"""Element identity, builtin scalar names, and source positions.

Everything downstream (parser, type system, compiler, VM, tools) shares these
primitives, so they live in a leaf module with no package-internal imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

# Nominal scalar types. Reserved as bean ids in every namespace.
BUILTIN_SCALARS = ("String", "Long", "Boolean", "Double")


class ElementId(NamedTuple):
    """Globally unique model element name: (namespace, local).

    The empty namespace is the root namespace, where the kernel lives. A
    tuple, so hashing and equality run in C: ids key every table of the
    compiler.
    """

    namespace: str
    local: str

    def render(self) -> str:
        if self.namespace:
            return f"{self.namespace}:{self.local}"
        return self.local

    def __str__(self) -> str:
        return self.render()

    @staticmethod
    def parse(written: str, default_namespace: str = "") -> "ElementId":
        """Split a written reference.

        An explicit qualifier sticks (split on the last colon); an unqualified
        name lands in default_namespace.
        """
        if ":" in written:
            ns, local = written.rsplit(":", 1)
            return ElementId(ns, local)
        return ElementId(default_namespace, written)


# Sentinel target for dependency edges whose reference never resolved.
UNRESOLVED = ElementId("", "⊥unresolved")


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """Half-open region of a source unit, 1-based lines and columns."""

    path: str
    line: int
    column: int
    end_line: int
    end_column: int

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"


def is_valid_local(name: str) -> bool:
    """Usable as a bean id local part / property name: non-empty, no ':', no whitespace."""
    if not name:
        return False
    if ":" in name:
        return False
    return not any(c.isspace() for c in name)
