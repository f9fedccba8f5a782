"""The benchmark's workspace: generated by mtalk, read back with xml.etree.

The bean table built here is independent of mtalk's parser, so the values it
predicts are a reference for the VM's output, and the seeded edits it plans
are fixed before any mtalk code runs on them.
"""

from __future__ import annotations

import bisect
import os
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import asdict, dataclass

# ROADMAP c07: class_count, metaclass_count, mean_dit, instances_per_class, seed
C07 = (4800, 200, 4.75, 4, 42)

_BEAN_START = re.compile(r'<bean id="([^"]+)"')
_LONG_VALUE = re.compile(r"<(p\d+_\d+)>(\d+)</\1>")
_SCALAR_TYPES = ("Long", "Double", "Boolean")
_MODEL_TAG = "<model>"
# value edits per cycle: the commonest edit, and the one edit_ms is the median
# fold time of, so it gets enough samples in a one-cycle run
VALUE_PAIRS = 3
_TYPE_TEXT = re.compile(r"<type>(.*)</type>")


@dataclass
class Bean:
    id: str
    cls: str
    parent: str | None
    abstract: bool
    declarative: bool
    path: str
    props: dict[str, str]  # own property definitions: name -> written type
    values: dict[str, tuple[str, str]]  # name -> ("text", text) | ("ref", target id)


@dataclass(frozen=True)
class Step:
    """One file-level edit of a script. Text edits replace `old` by `new` at
    `offset`; a unit step creates (old is None) or deletes (new is None) a
    file; a rename step renames element `old` to `new` through mtalk. Value
    and class steps name the bean and property they change, so the fold's
    result can be checked."""

    kind: str
    phase: str  # "do" or "undo"
    path: str
    offset: int
    old: str | None
    new: str | None
    element: str = ""
    prop: str = ""


def _bean(node, path: str) -> Bean:
    props: dict[str, str] = {}
    values: dict[str, tuple[str, str]] = {}
    for child in node:
        if child.tag == "properties":
            for p in child.findall("property"):
                props[p.findtext("name").strip()] = p.findtext("type").strip()
        elif "ref" in child.attrib:
            values[child.tag] = ("ref", child.attrib["ref"])
        else:
            values[child.tag] = ("text", child.text or "")
    a = node.attrib
    return Bean(
        id=a["id"],
        cls=a["class"],
        parent=a.get("parent"),
        abstract=a.get("abstract") == "true",
        declarative=a.get("declarative") == "true",
        path=path,
        props=props,
        values=values,
    )


class Workspace:
    """A generated workspace on disk plus its original texts and bean table."""

    def __init__(self, root: str, texts: dict[str, str]):
        self.root = root
        self.texts = texts
        self.beans: dict[str, Bean] = {}
        for path, text in sorted(texts.items()):
            if path.endswith(".model.xml"):
                for node in ET.fromstring(text).findall("bean"):
                    b = _bean(node, path)
                    self.beans[b.id] = b
        metas = {b.id for b in self.beans.values() if b.cls == "Class"}
        self.classes = sorted(b.id for b in self.beans.values() if b.cls in metas)
        self._class_set = class_set = set(self.classes)
        self.instances = sorted(
            b.id for b in self.beans.values() if b.cls in class_set and not b.abstract
        )
        self.subclasses: dict[str, list[str]] = {}
        for c in self.classes:
            parent = self.beans[c].parent
            if parent in class_set:
                self.subclasses.setdefault(parent, []).append(c)
        # declarative classes with a superclass and a subclass: no manifest entry
        # to keep in step, and an edit reaches down the hierarchy
        self.mid_classes = [
            c for c in self.classes
            if self.beans[c].declarative and self.beans[c].parent in self.subclasses and c in self.subclasses
        ]
        # (path, offset, text, bean, property) of every Long value of a concrete instance
        self._long_sites = []
        for path in sorted(texts):
            text = texts[path]
            starts = [(m.start(), m.group(1)) for m in _BEAN_START.finditer(text)]
            offsets = [s for s, _ in starts]
            for m in _LONG_VALUE.finditer(text):
                owner = starts[bisect.bisect_right(offsets, m.start()) - 1][1]
                if owner in self.beans and not self.beans[owner].abstract:
                    self._long_sites.append((path, m.start(2), m.group(2), owner, m.group(1)))

    @classmethod
    def generate(cls, root: str, spec=C07) -> "Workspace":
        from mtalk.synthetic import BenchmarkSpec, generate_synthetic

        written = generate_synthetic(BenchmarkSpec(*spec), root)
        texts = {}
        for rel in written:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                texts[rel] = f.read()
        return cls(root, texts)

    # -- reference semantics, from the XML alone

    def lineage(self, class_id: str) -> list[str]:
        chain = [class_id]
        while self.beans[chain[-1]].parent in self.beans:
            chain.append(self.beans[chain[-1]].parent)
        return chain

    def expected_values(self, bean_id: str, edited: tuple[str, str, str] | None = None) -> dict:
        """What get_instance must inject: the parent-template chain merged
        nearest-wins, scalars converted by the declared type, references as
        ("ref", id). `edited` = (bean id, property, text) overrides one value."""
        chain = [self.beans[bean_id]]
        while True:
            parent = self.beans.get(chain[-1].parent)
            if parent is None or parent.cls not in self._class_set or any(parent is b for b in chain):
                break
            chain.append(parent)
        merged: dict[str, tuple[str, str]] = {}
        for b in reversed(chain):
            merged.update(b.values)
        if edited is not None and edited[0] == bean_id:
            merged[edited[1]] = ("text", edited[2])
        types: dict[str, str] = {}
        for c in reversed(self.lineage(chain[0].cls)):
            types.update(self.beans[c].props)
        out = {}
        for name, (how, raw) in merged.items():
            t = types.get(name)
            if t is None:
                continue
            if how == "ref":
                out[name] = ("ref", raw)
            elif t == "Long":
                out[name] = int(raw.strip())
            elif t == "Double":
                out[name] = float(raw.strip())
            elif t == "Boolean":
                out[name] = raw.strip() == "true"
            else:
                out[name] = raw
        return out

    # -- seeded edits

    def value_edit(self, rng: random.Random) -> tuple[Step, Step, tuple[str, str, str]]:
        """A same-length edit of one Long value of a concrete instance bean.
        Returns the do and undo steps and (bean id, property, new text)."""
        path, offset, old, owner, prop = rng.choice(self._long_sites)
        digit = (int(old[-1]) + 1 + rng.randrange(9)) % 10
        new = old[:-1] + str(digit)
        return (
            Step("value", "do", path, offset, old, new, owner, prop),
            Step("value", "undo", path, offset, new, old, owner, prop),
            (owner, prop, new),
        )

    def _class_edit(self, rng: random.Random) -> tuple[Step, Step]:
        """Retype one scalar property of a declarative mid-hierarchy class to
        String: every value still conforms, so the workspace stays clean."""
        candidates = [
            (c, p) for c in self.mid_classes
            for p, t in sorted(self.beans[c].props.items()) if t in _SCALAR_TYPES
        ]
        class_id, prop = rng.choice(candidates)
        path = self.beans[class_id].path
        text = self.texts[path]
        start = text.index(f'<bean id="{class_id}"')
        name_at = text.index(f"<name>{prop}</name>", start)
        old = f"<type>{self.beans[class_id].props[prop]}</type>"
        offset = text.index(old, name_at)
        new = "<type>String</type>"
        return (Step("class", "do", path, offset, old, new, class_id, prop),
                Step("class", "undo", path, offset, new, old, class_id, prop))

    def _rename_edit(self, rng: random.Random) -> tuple[Step, Step]:
        """Rename a declarative class referenced from three or four units, so
        the fold spans several files at a bounded cost. The class must not
        appear in the manifest, as itself or as a native field's type, so the
        renamed workspace stays clean."""
        referenced_from: dict[str, set[str]] = {}
        native_field_types = set()
        for b in self.beans.values():
            for target in (b.cls, b.parent, *b.props.values()):
                referenced_from.setdefault(target, set()).add(b.path)
            if b.id in self._class_set and not b.declarative:
                native_field_types.update(b.props.values())
        candidates = [
            c for c in self.classes
            if self.beans[c].declarative and c not in native_field_types
            and len(referenced_from.get(c, ())) in (3, 4)
        ]
        old = rng.choice(candidates)
        new = old + "_rn"
        return Step("rename", "do", "", 0, old, new), Step("rename", "undo", "", 0, new, old)

    def edit_cycle(self, seed: int, cycle: int) -> list[Step]:
        """Do/undo pairs in a seeded order: VALUE_PAIRS value pairs and one
        pair of every other edit kind."""
        rng = random.Random(f"edit_fold:{seed}:{cycle}")
        units = sorted(p for p in self.texts if p.endswith(".model.xml"))
        pairs = [self.value_edit(rng)[:2] for _ in range(VALUE_PAIRS)]
        path = rng.choice(units)
        at = self.texts[path].index(_MODEL_TAG) + len(_MODEL_TAG)
        pairs.append((Step("shift", "do", path, at, "", "\n"), Step("shift", "undo", path, at, "\n", "")))
        path = rng.choice(units)
        at = self.texts[path].index(_MODEL_TAG) + len(_MODEL_TAG)
        note = "<!-- edited -->"
        pairs.append((Step("comment", "do", path, at, "", note), Step("comment", "undo", path, at, note, "")))
        pairs.append(self._class_edit(rng))
        path = f"perfbench_{seed}_{cycle}.model.xml"
        lines = ["<model>"]
        for j in range(3):
            lines.append(f'  <bean id="U{seed}_{cycle}_{j}" class="{rng.choice(self.classes)}"/>')
        lines += ["</model>", ""]
        content = "\n".join(lines)
        pairs.append((Step("unit", "do", path, 0, None, content), Step("unit", "undo", path, 0, content, None)))
        pairs.append(self._rename_edit(rng))
        rng.shuffle(pairs)
        return [step for pair in pairs for step in pair]


def bean_ids(text: str) -> list[str]:
    """Ids of the beans declared in a unit's text."""
    return _BEAN_START.findall(text)


def written_type(type_element: str) -> str:
    """The type named by a class step's `<type>...</type>` text."""
    return _TYPE_TEXT.fullmatch(type_element).group(1)


def script_bytes(steps: list[Step]) -> bytes:
    """Canonical encoding of a script, for determinism checks."""
    return repr([asdict(s) for s in steps]).encode("utf-8")


def apply_text_step(root: str, step: Step) -> str | None:
    """Write a text or unit step to disk. Returns the unit's new text, or None
    when the unit was deleted."""
    full = os.path.join(root, step.path)
    if step.old is None:
        text = step.new
    elif step.new is None:
        os.remove(full)
        return None
    else:
        with open(full, encoding="utf-8") as f:
            text = f.read()
        if text[step.offset:step.offset + len(step.old)] != step.old:
            raise ValueError(f"{step.kind} {step.phase}: {step.path} does not hold the expected text")
        text = text[:step.offset] + step.new + text[step.offset + len(step.old):]
    with open(full, "w", encoding="utf-8") as f:
        f.write(text)
    return text
