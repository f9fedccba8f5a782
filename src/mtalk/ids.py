"""Element identity, builtin scalars and their lexical rules, source positions,
and the record decorator of the package's value types.

Everything downstream (parser, type system, compiler, VM, tools) shares these
primitives, so they live in a leaf module with no package-internal imports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, NamedTuple

_DECIMAL = r"[\+\-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][\+\-]?[0-9]+)?"
_INTEGER = re.compile(r"[\+\-]?[0-9]+")
XML_SPACE = " \t\r\n"  # whitespace in XML 1.0; str.strip() would also take Unicode spaces
_XML_SPACE_RUN = re.compile(f"[{XML_SPACE}]+")


def _long(s: str) -> int:
    # leading zeros go first, so they never count against int()'s digit limit
    magnitude = int(s.lstrip("+-0") or "0")
    return -magnitude if s[0] == "-" else magnitude


# Lexical spaces of the XSD builtins (W3C XML Schema 1.1 Part 2), trimmed.
XSD_LEXICAL: dict[str, Callable[[str], object]] = {
    "xs:string": lambda s: True,
    "xs:token": lambda s: True,
    "xs:long": lambda s: bool(_INTEGER.fullmatch(s)) and len(s.lstrip("+-0")) <= 19 and -(2**63) <= _long(s) < 2**63,
    "xs:double": re.compile(_DECIMAL + r"|[\+\-]?INF|NaN").fullmatch,
    "xs:boolean": {"true", "false", "1", "0"}.__contains__,
}


class Scalar(NamedTuple):
    """A lexical rule: literals of the XSD builtin `xsd` that also match `pattern`, if
    any, once XML whitespace (space, tab, CR, LF) is trimmed from their ends, as W3C
    collapses it; xs:string keeps its text and xs:token also collapses inner runs.
    Other Unicode spaces, such as U+00A0, are part of the literal. `convert` gives
    their value."""

    xsd: str
    pattern: re.Pattern | None
    convert: Callable[[str], object]

    def lexeme(self, text: str) -> str:
        if self.xsd == "xs:string":
            return text
        if self.xsd == "xs:token":
            return _XML_SPACE_RUN.sub(" ", text).strip(" ")
        return text.strip(XML_SPACE)

    def conforms(self, text: str) -> bool:
        s = self.lexeme(text)
        return bool(XSD_LEXICAL[self.xsd](s)) and (self.pattern is None or bool(self.pattern.fullmatch(s)))

    def value(self, text: str):
        return self.convert(self.lexeme(text))


# Nominal scalar types and their rules. Reserved as bean ids in every namespace.
SCALARS = {
    "String": Scalar("xs:string", None, str),
    "Long": Scalar("xs:long", None, _long),
    "Boolean": Scalar("xs:boolean", re.compile("true|false"), lambda s: s == "true"),
    "Double": Scalar("xs:double", re.compile(_DECIMAL), float),
}
BUILTIN_SCALARS = tuple(SCALARS)

# The bean flags abstract and declarative: exactly 'true' or 'false', untrimmed.
FLAG = Scalar("xs:string", re.compile("true|false"), lambda s: s == "true")


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


def record(cls):
    """dataclass(frozen=True, slots=True) that pickles as cls(*field values),
    read by one attrgetter, not by the dataclass's __getstate__, which calls
    fields() per object. Pickles made through __getstate__ still load."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    get = attrgetter(*names)
    if len(names) == 1:  # a one-name attrgetter gives the value, not a tuple
        cls.__reduce__ = lambda self: (cls, (get(self),))
    else:
        cls.__reduce__ = lambda self: (cls, get(self))
    return cls


@record
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
    # str.split() cuts at exactly the characters str.isspace() accepts
    return ":" not in name and name.split() == [name]
