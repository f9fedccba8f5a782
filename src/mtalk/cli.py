"""Workspace command line: compile, get, deps, schema, rename, watch, gen."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import vm as vmmod
from .compiler import (
    CompileState,
    compile_workspace,
    incremental_compile,
    load_state,
    save_state,
    workspace_changes,
)
from .diagnostics import has_errors
from .errors import ModelError, NotFoundError
from .graph import MANIFEST_NS, breadth_first
from .ids import UNRESOLVED, ElementId
from .kernel import KERNEL_SOURCE
from .native import NativeManifest, load_manifest
from .rename import apply_patchset, rename_element, rename_property
from .schema import generate_schemas, schema_files
from .synthetic import BenchmarkSpec, generate_synthetic
from .watch import run_watch

EXIT_OK = 0
EXIT_ERRORS = 1
EXIT_IO = 2


def _state_dir(root: str, flag: str | None) -> str:
    if flag:
        return flag
    env = os.environ.get("MTALK_STATE")
    if env:
        return env
    return os.path.join(root, ".mtalk", "state")


def _find_manifest(root: str, flag: str | None) -> NativeManifest | None:
    if flag:
        return load_manifest(flag)
    default = os.path.join(root, "manifest.json")
    if os.path.isfile(default):
        return load_manifest(default)
    return None


def _load_workspace(args) -> tuple[CompileState, list]:
    """Compile the workspace named by args.root, folding it into the
    persisted state when there is one. A fold that found nothing changed
    leaves the persisted state as it is."""
    _require_root(args.root)
    manifest = _find_manifest(args.root, args.manifest)
    state_dir = _state_dir(args.root, args.state)
    prev = None if args.no_cache else load_state(state_dir)
    if prev is None:
        state, report = compile_workspace(args.root, manifest)
    else:
        changed, removed, parse_diags = workspace_changes(prev, args.root)
        state, _recompiled, report = incremental_compile(
            prev, changed, removed_paths=removed, parse_diags=parse_diags, manifest=manifest
        )
        if not (changed or removed or parse_diags) and manifest == prev.manifest:
            return state, report
    try:
        save_state(state, state_dir)
    except OSError:
        pass  # read-only workspaces still compile
    return state, report


def _print_diags(diags, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps([d.to_dict() for d in diags], indent=2) + "\n")
    else:
        for d in diags:
            out.write(d.render() + "\n")


def _require_root(root: str) -> None:
    if not os.path.isdir(root):
        raise OSError(f"workspace root '{root}' is not a directory")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_compile(args, out) -> int:
    state, report = _load_workspace(args)
    if report or args.json:
        _print_diags(report, args.json, out)
    return EXIT_ERRORS if has_errors(report) else EXIT_OK


def _value_repr(value) -> str:
    if isinstance(value, vmmod.MetaView):
        return value.target.render()
    if isinstance(value, vmmod.RuntimeInstance):
        return value.bean_id.render() if value.bean_id is not None else f"<{value.class_id.render()}>"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    return str(value)


def _cmd_get(args, out) -> int:
    state, report = _load_workspace(args)
    if has_errors(report):
        _print_diags(report, args.json, sys.stderr)
        return EXIT_ERRORS
    vm = vmmod.load(state)
    inst = vmmod.get_instance(vm, args.bean)
    if args.json:
        out.write(json.dumps(vmmod.dump_instance(inst), indent=2) + "\n")
    else:
        for name, value in inst.values.items():
            out.write(f"{name}={_value_repr(value)}\n")
    return EXIT_OK


def _cmd_deps(args, out) -> int:
    state, _report = _load_workspace(args)
    model = state.resolved
    target = model.lookup(ElementId.parse(args.element, ""))
    if target is None:
        sys.stderr.write(f"unknown element '{args.element}'\n")
        return EXIT_ERRORS
    graph = state.graph
    reached = breadth_first([target], graph.incoming if args.reverse else graph.outgoing, args.reverse)
    # manifest pseudo-nodes and the unresolved sentinel stay internal
    rows = [(e, edge.kind) for e, edge in reached.items()
            if edge is not None and e != UNRESOLVED and e.namespace != MANIFEST_NS]
    if args.json:
        out.write(
            json.dumps([{"id": e.render(), "kind": k} for e, k in rows], indent=2) + "\n"
        )
    else:
        for eid, kind in rows:
            out.write(f"{eid.render()} ({kind})\n")
    return EXIT_OK


def _cmd_schema(args, out) -> int:
    state, _report = _load_workspace(args)
    docs = generate_schemas(state)
    if not args.output:
        out.write(docs[""].text)
        return EXIT_OK
    target = args.output
    os.makedirs(os.path.dirname(os.path.abspath(target)), exist_ok=True)
    written = []
    for name, text in schema_files(docs, os.path.basename(target)).items():
        path = os.path.join(os.path.dirname(target), name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        written.append(path)
    if args.json:
        out.write(json.dumps({"files": sorted(written)}, indent=2) + "\n")
    else:
        for path in sorted(written):
            out.write(path + "\n")
    return EXIT_OK


def _cmd_rename(args, out) -> int:
    state, _report = _load_workspace(args)
    if args.property:
        patchset, warnings = rename_property(state, args.property, args.old, args.new)
    else:
        patchset, warnings = rename_element(state, args.old, args.new)
    if args.json:
        payload = {
            "patches": [
                {"path": p.path, "span": p.span.render(), "replacement": p.replacement}
                for p in patchset.patches
            ],
            "warnings": [d.render() for d in warnings],
            "applied": not args.dry_run,
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        for w in warnings:
            out.write(w.render() + "\n")
        for p in patchset.patches:
            out.write(f"{p.span.render()}: -> {p.replacement}\n")
    if not args.dry_run and patchset.patches:
        apply_patchset(patchset, args.root)
    if not args.json:
        action = "planned" if args.dry_run else "applied"
        out.write(f"{action} {len(patchset.patches)} patches in {len(patchset.paths())} files\n")
    return EXIT_OK


def _cmd_watch(args, out) -> int:
    _require_root(args.root)
    manifest = _find_manifest(args.root, args.manifest)
    return run_watch(
        args.root,
        manifest,
        interval=args.interval,
        emit=lambda line: out.write(line + "\n"),
        max_polls=args.polls,
    )


def _cmd_gen(args, out) -> int:
    spec = BenchmarkSpec(
        class_count=args.classes,
        metaclass_count=args.metaclasses,
        mean_dit=args.mean_dit,
        instances_per_class=args.instances,
        seed=args.seed,
    )
    written = generate_synthetic(spec, args.output, native_fraction=args.native_fraction)
    if args.json:
        out.write(json.dumps({"files": written}, indent=2) + "\n")
    else:
        out.write(f"generated {len(written)} files in {args.output}\n")
    return EXIT_OK


def _cmd_kernel(args, out) -> int:
    out.write(KERNEL_SOURCE + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def _add_workspace(p: argparse.ArgumentParser) -> None:
    p.add_argument("--root", default=".", help="workspace root directory")
    p.add_argument("--manifest", default=None, help="native manifest path (default: <root>/manifest.json)")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_workspace(p)
    p.add_argument("--state", default=None, help="compile state directory (default: $MTALK_STATE or <root>/.mtalk/state)")
    p.add_argument("--no-cache", action="store_true", help="ignore persisted compile state")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtalk", description="model workspace tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile the workspace and print diagnostics")
    _add_common(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("get", help="instantiate a bean and print its values")
    p.add_argument("bean", help="bean id")
    _add_common(p)
    p.set_defaults(func=_cmd_get)

    p = sub.add_parser("deps", help="print the dependency closure of an element")
    p.add_argument("element", help="element id")
    p.add_argument("--reverse", action="store_true", help="dependents instead of dependencies")
    _add_common(p)
    p.set_defaults(func=_cmd_deps)

    p = sub.add_parser("schema", help="generate XML schemas for the workspace")
    p.add_argument("-o", "--output", default=None, help="write schema files next to this path")
    _add_common(p)
    p.set_defaults(func=_cmd_schema)

    p = sub.add_parser("rename", help="rename an element or property across the workspace")
    p.add_argument("old", help="current name (element id, or property name with --property)")
    p.add_argument("new", help="new name")
    p.add_argument("--property", default=None, metavar="CLASS", help="rename a property of this class")
    p.add_argument("--dry-run", action="store_true", help="print patches without applying them")
    _add_common(p)
    p.set_defaults(func=_cmd_rename)

    p = sub.add_parser("watch", help="recompile incrementally as files change")
    p.add_argument("--interval", type=float, default=0.5, help="poll interval in seconds")
    p.add_argument("--polls", type=int, default=None, help="stop after this many polls")
    _add_workspace(p)
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser("gen", help="generate a synthetic benchmark workspace")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--classes", type=int, required=True, help="total class count")
    p.add_argument("--metaclasses", type=int, default=1, help="metaclass count")
    p.add_argument("--mean-dit", type=float, default=1.0, help="target mean inheritance depth")
    p.add_argument("--instances", type=int, default=0, help="instances per class")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--native-fraction", type=float, default=0.5, help="fraction of classes with manifest entries")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("kernel", help="print the embedded kernel unit")
    p.set_defaults(func=_cmd_kernel)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_IO
    except NotFoundError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_ERRORS
    except ModelError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_ERRORS
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_ERRORS


if __name__ == "__main__":
    sys.exit(main())
