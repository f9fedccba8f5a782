"""Deterministic synthetic workspace generator for benchmarks and stress tests.

Given target counts, a mean inheritance depth, and a seed, emits a workspace
(model units plus manifest.json) that compiles error-free. Identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json
import os
import random

from .ids import ElementId, record
from .kernel import ResolvedModel


@record
class BenchmarkSpec:
    class_count: int
    metaclass_count: int
    mean_dit: float
    instances_per_class: int
    seed: int

    def validate(self) -> None:
        if self.metaclass_count < 1:
            raise ValueError("metaclass_count must be at least 1")
        if self.class_count < self.metaclass_count:
            raise ValueError("class_count must be at least metaclass_count")
        if self.mean_dit < 1:
            raise ValueError("mean_dit must be at least 1")
        if self.instances_per_class < 0:
            raise ValueError("instances_per_class must be non-negative")


_CLASSES_PER_FILE = 25


def _depth_sequence(n: int, total: int, base: int) -> list[int]:
    """n depths >= base summing to total, every depth in [base, max] occupied.

    Starts with a ramp base..D so each depth has a parent pool, then fills
    the rest inside that range to land exactly on total.
    """
    if n == 0:
        return []
    lo = base * n
    hi = n * base + n * (n - 1) // 2  # strict ramp upper bound
    total = min(max(total, lo), hi)
    d_max = base
    while d_max + 1 - base < n:
        nxt = d_max + 1
        ramp_sum = (base + nxt) * (nxt - base + 1) // 2
        fill = n - (nxt - base + 1)
        if ramp_sum + fill * base > total:
            break
        d_max = nxt
    ramp = list(range(base, d_max + 1))
    depths = ramp[:]
    rem = total - sum(ramp)
    fill = n - len(ramp)
    for i in range(fill):
        share = rem // (fill - i)
        d = min(d_max, max(base, share))
        depths.append(d)
        rem -= d
    # clamping can leave a residue; settle it one step at a time
    i = len(ramp)
    while rem != 0 and i < len(depths):
        step = 1 if rem > 0 else -1
        nd = depths[i] + step
        if base <= nd <= d_max:
            depths[i] = nd
            rem -= step
        else:
            i += 1
    if rem != 0:
        raise ValueError("depth targets are infeasible for the requested counts")
    return depths


_WORDS = ("alpha", "bravo", "delta", "echo", "fox", "golf", "kilo", "lima", "mike", "oscar")


def _scalar_text(rng: random.Random, type_name: str) -> str:
    if type_name == "Long":
        return str(rng.randrange(0, 100000))
    if type_name == "Double":
        return f"{rng.randrange(0, 10000)}.{rng.randrange(0, 100):02d}"
    if type_name == "Boolean":
        return "true" if rng.random() < 0.5 else "false"
    return rng.choice(_WORDS) + str(rng.randrange(100))


def generate_synthetic(spec: BenchmarkSpec, out_dir: str, native_fraction: float = 0.5) -> list[str]:
    """Write the workspace under out_dir; returns the relative paths written."""
    spec.validate()
    if not 0.0 <= native_fraction <= 1.0:
        raise ValueError("native_fraction must be within [0, 1]")
    rng = random.Random(spec.seed)
    n_meta = spec.metaclass_count
    n_model = spec.class_count - n_meta

    total_all = round(spec.mean_dit * spec.class_count)
    meta_total = max(2 * n_meta, round(spec.mean_dit * n_meta))
    meta_depths = _depth_sequence(n_meta, meta_total, base=2)
    model_depths = _depth_sequence(n_model, total_all - sum(meta_depths), base=1)

    scalar_types = ("Long", "String", "Boolean", "Double")

    # --- metaclasses: one unit, chained under Class
    meta_names = [f"M{i:03d}" for i in range(n_meta)]
    metas_at: dict[int, list[str]] = {1: ["Class"]}
    meta_lines = ["<model>"]
    for i, depth in enumerate(meta_depths):
        parent = rng.choice(metas_at[depth - 1])
        metas_at.setdefault(depth, []).append(meta_names[i])
        meta_lines.append(f'  <bean id="{meta_names[i]}" class="Class" parent="{parent}">')
        meta_lines.append("    <properties>")
        meta_lines.append("      <property>")
        meta_lines.append(f"        <name>m{i:03d}</name>")
        meta_lines.append("        <type>Long</type>")
        meta_lines.append("      </property>")
        meta_lines.append("    </properties>")
        meta_lines.append("  </bean>")
    meta_lines.append("</model>")
    meta_lines.append("")

    # --- model classes with their instances, batched into files
    class_names = [f"C{i:04d}" for i in range(n_model)]
    class_index = {name: i for i, name in enumerate(class_names)}
    meta_index = {name: i for i, name in enumerate(meta_names)}
    models_at: dict[int, list[str]] = {0: ["Object"]}
    class_meta: list[str] = []
    class_props: list[list[tuple[str, str]]] = []  # per class: (name, type)
    native: list[bool] = []
    # concrete instances per class, for ref targets
    concrete: list[list[str]] = []

    files: dict[str, list[str]] = {"meta.model.xml": meta_lines}
    batch: list[str] = []
    batch_idx = 0

    def flush_batch():
        nonlocal batch, batch_idx
        if not batch:
            return
        files[f"classes_{batch_idx:03d}.model.xml"] = ["<model>", *batch, "</model>", ""]
        batch = []
        batch_idx += 1

    for i, depth in enumerate(model_depths):
        name = class_names[i]
        parent = rng.choice(models_at[depth - 1])
        models_at.setdefault(depth, []).append(name)
        mc = rng.choice(meta_names) if meta_names else "Class"
        class_meta.append(mc)
        is_native = rng.random() < native_fraction
        native.append(is_native)

        props: list[tuple[str, str]] = []
        n_props = rng.randrange(0, 3)
        for j in range(n_props):
            props.append((f"p{i}_{j}", rng.choice(scalar_types)))
        if i > 0 and rng.random() < 0.4:
            target = class_names[rng.randrange(0, i)]
            props.append((f"r{i}", target))
        class_props.append(props)

        attrs = f'id="{name}" class="{mc}" parent="{parent}"'
        if not is_native:
            attrs += ' declarative="true"'
        batch.append(f"  <bean {attrs}>")
        mi = meta_index.get(mc, -1)
        if mi >= 0 and rng.random() < 0.5:
            batch.append(f"    <m{mi:03d}>{rng.randrange(0, 1000)}</m{mi:03d}>")
        if props:
            batch.append("    <properties>")
            for pname, ptype in props:
                batch.append("      <property>")
                batch.append(f"        <name>{pname}</name>")
                batch.append(f"        <type>{ptype}</type>")
                batch.append("      </property>")
            batch.append("    </properties>")
        batch.append("  </bean>")

        # instances: one abstract template plus concrete children
        my_concrete: list[str] = []
        k = spec.instances_per_class
        template = None
        if k >= 2:
            template = f"{name}_t"
            batch.append(f'  <bean id="{template}" class="{name}" abstract="true">')
            for pname, ptype in props:
                if ptype in scalar_types:
                    batch.append(f"    <{pname}>{_scalar_text(rng, ptype)}</{pname}>")
            batch.append("  </bean>")
            k -= 1
        for c in range(k):
            inst = f"{name}_i{c}"
            my_concrete.append(inst)
            attrs = f'id="{inst}" class="{name}"'
            if template is not None:
                attrs += f' parent="{template}"'
            body: list[str] = []
            for pname, ptype in props:
                if ptype in scalar_types:
                    if rng.random() < 0.5:
                        body.append(f"    <{pname}>{_scalar_text(rng, ptype)}</{pname}>")
                else:
                    pool = concrete[class_index[ptype]]
                    if pool:
                        body.append(f'    <{pname} ref="{rng.choice(pool)}"/>')
            if body:
                batch.append(f"  <bean {attrs}>")
                batch.extend(body)
                batch.append("  </bean>")
            else:
                batch.append(f"  <bean {attrs}/>")
        concrete.append(my_concrete)

        if (i + 1) % _CLASSES_PER_FILE == 0:
            flush_batch()
    flush_batch()

    # --- manifest for the native classes
    entries = []
    for i, name in enumerate(class_names):
        if not native[i]:
            continue
        fields = [{"name": p, "type": t} for p, t in class_props[i]]
        entries.append({"name": name, "parent": None, "fields": fields})
    manifest_text = json.dumps({"classes": entries}, indent=2) + "\n"

    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    for rel in sorted(files):
        with open(os.path.join(out_dir, rel), "w", encoding="utf-8") as f:
            f.write("\n".join(files[rel]))
        written.append(rel)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        f.write(manifest_text)
    written.append("manifest.json")
    return sorted(written)


def measure_mean_dit(model: ResolvedModel) -> float:
    """Mean inheritance depth over user classes (kernel excluded)."""
    depths = [
        len(model.lineage(eid)) - 1
        for eid in model.classes
        if eid not in model.kernel_ids
    ]
    if not depths:
        return 0.0
    return sum(depths) / len(depths)
