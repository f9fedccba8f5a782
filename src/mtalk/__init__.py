"""mtalk: a textual XML modeling language with classes, metaclasses and
instances in one type system, an incremental cross-model compiler, a
dependency-injecting model VM with reflection and atomic reload, native
binding via a manifest, XSD generation, and workspace tooling."""

from .compiler import (
    CompileState,
    check_conformance,
    check_override,
    compile_model,
    compile_workspace,
    incremental_compile,
    load_state,
    save_state,
    validate_element,
)
from .diagnostics import Diagnostic, Severity
from .graph import DependencyGraph, Edge, build_dependency_graph
from .ids import BUILTIN_SCALARS, UNRESOLVED, ElementId, SourceSpan
from .kernel import (
    ElementKind,
    PropertyDefinition,
    ResolvedModel,
    TypeRef,
    bootstrap_kernel,
    classify,
    conforms,
    effective_properties,
    lineage,
    resolve,
)
from .native import (
    NativeClassSig,
    NativeManifest,
    NativeRegistry,
    bind,
    load_manifest,
    parse_manifest,
)
from .rename import Patch, PatchSet, apply_patchset, rename_element, rename_property
from .schema import SchemaDoc, generate_schema, generate_schemas, validate_with_schema
from .source import SourceUnit, parse_unit, parse_workspace
from .synthetic import BenchmarkSpec, generate_synthetic, measure_mean_dit
from .vm import (
    MetaView,
    RuntimeInstance,
    VmHandle,
    dump_instance,
    get_class,
    get_instance,
    is_instance_of,
    load,
    reflect_properties,
    reload,
    resolve_native,
)
from .watch import WatchResult, WatchSession

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SCALARS",
    "BenchmarkSpec",
    "CompileState",
    "Diagnostic",
    "DependencyGraph",
    "Edge",
    "ElementId",
    "ElementKind",
    "MetaView",
    "NativeClassSig",
    "NativeManifest",
    "NativeRegistry",
    "Patch",
    "PatchSet",
    "PropertyDefinition",
    "ResolvedModel",
    "RuntimeInstance",
    "SchemaDoc",
    "Severity",
    "SourceSpan",
    "SourceUnit",
    "TypeRef",
    "UNRESOLVED",
    "VmHandle",
    "WatchResult",
    "WatchSession",
    "apply_patchset",
    "bind",
    "bootstrap_kernel",
    "build_dependency_graph",
    "check_conformance",
    "check_override",
    "classify",
    "compile_model",
    "compile_workspace",
    "conforms",
    "dump_instance",
    "effective_properties",
    "generate_schema",
    "generate_schemas",
    "generate_synthetic",
    "get_class",
    "get_instance",
    "incremental_compile",
    "is_instance_of",
    "lineage",
    "load",
    "load_manifest",
    "load_state",
    "measure_mean_dit",
    "parse_manifest",
    "parse_unit",
    "parse_workspace",
    "reflect_properties",
    "reload",
    "rename_element",
    "rename_property",
    "resolve",
    "resolve_native",
    "save_state",
    "validate_element",
    "validate_with_schema",
    "__version__",
]
