"""Source guards: every line of the package fits in 120 columns, the
export list holds only names the package has, no module reads the
environment or rebinds a module global, the walk records every
diagnostic through WalkContext.add, no regular expression uses syntax
newer than CPython 3.10, and each record class keeps its fields in
__slots__ and gives each instance lists and dicts of its own.

Line counts are how refactors of src/derlint are compared, so a count must
not be lowered by joining lines past the width the code is wrapped at.
A verdict must be a function of the input octets and the registry passed
in; an environment read or a global set at run time would add a hidden input.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import derlint
from derlint.der import parse_tlv_tree
from derlint.differential import AnalysisResult, CrossTab
from derlint.diagnostics import Histogram
from derlint.extensions import ExtensionEntry
from derlint.grammar import AlgorithmId, ParsedCertificate, ParsedTbs
from derlint.ingest import CertificateReport, InputDocument, LintOptions
from derlint.registry import Registry

MAX_COLUMNS = 120
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}
WALK_MODULES = ("grammar", "names", "extensions", "matchers")
DIAGNOSTIC_LISTS = {"diags", "diagnostics"}
RE_FUNCTIONS = {"compile", "fullmatch", "match", "search", "findall", "finditer", "split", "sub", "subn"}
# Pattern syntax that CPython 3.11 added: possessive repeats (*+, ++, ?+, {m,n}+) and atomic groups, (?>...).
NEWER_SYNTAX = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}
PATTERN_PARSER = getattr(re, "_parser", None) or importlib.import_module("sre_parse")  # sre_parse before 3.11
# (module, enclosing function, what) of the only recordings the walk modules may hold: the recorder itself, and
# parse_certificate's one diagnostic for a document the scan refuses, which it records before any walk starts.
RECORDERS = {
    ("extensions", "WalkContext.add", "append"),
    ("extensions", "WalkContext.add", "diag"),
    ("grammar", "parse_certificate", "Diagnostic"),
}


def test_no_source_line_is_wider_than_120_columns():
    package = Path(derlint.__file__).parent
    wide = [
        f"{path.relative_to(package)}:{number} ({len(line)} columns)"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert wide == []


def test_every_exported_name_resolves_once():
    missing = [name for name in derlint.__all__ if not hasattr(derlint, name)]
    assert missing == []
    listed = [name for names in derlint._EXPORTS.values() for name in names.split()]
    assert sorted(listed) == derlint.__all__


def test_no_module_reads_the_environment_or_rebinds_a_global():
    package = Path(derlint.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Global):
                found.append(f"{path.relative_to(package)}:{node.lineno} global")
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ENVIRONMENT_NAMES:
                found.append(f"{path.relative_to(package)}:{getattr(node, 'lineno', '?')} {name}")
    assert found == []


def _names_a_diagnostics_list(node: ast.expr) -> bool:
    return (getattr(node, "id", None) or getattr(node, "attr", None)) in DIAGNOSTIC_LISTS


def _recordings(tree: ast.AST, scope: str = ""):
    """(enclosing function, what, line) of each call to diag or Diagnostic and each addition to a diagnostics list."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _recordings(node, f"{scope}.{node.name}" if scope else node.name)
            continue
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in ("diag", "Diagnostic"):
            yield scope, name, node.lineno
        elif name in ("append", "extend", "insert") and _names_a_diagnostics_list(func.value):
            yield scope, name, node.lineno
        elif isinstance(node, ast.AugAssign) and _names_a_diagnostics_list(node.target):
            yield scope, "+=", node.lineno
        yield from _recordings(node, scope)


def test_the_walk_records_diagnostics_only_through_walk_context_add():
    package = Path(derlint.__file__).parent
    sites = [
        (module, *site)
        for module in WALK_MODULES
        for site in _recordings(ast.parse((package / f"{module}.py").read_text(encoding="utf-8")))
    ]
    # The scan sees the allowed recordings, so it would see another one.
    assert {(module, scope, what) for module, scope, what, _ in sites} >= RECORDERS
    others = [f"{module}.py:{line} {what} in {scope}" for module, scope, what, line in sites
              if (module, scope, what) not in RECORDERS]
    assert others == []


def _patterns():
    """(module:line, pattern) of each call of an re function in the package, its pattern evaluated among the
    module's globals, which is where every such call of the package builds it."""
    package = Path(derlint.__file__).parent
    for path in sorted(package.rglob("*.py")):
        module = None
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if getattr(func, "attr", None) in RE_FUNCTIONS and getattr(func.value, "id", None) == "re":
                module = module or importlib.import_module(f"derlint.{path.stem}".removesuffix(".__init__"))
                expression = compile(ast.Expression(node.args[0]), str(path), "eval")
                yield f"{path.name}:{node.lineno}", eval(expression, vars(module))


def _opcode_names(parsed):
    """The name of every opcode in a parsed pattern, at any depth."""
    if isinstance(parsed, PATTERN_PARSER.SubPattern):
        parsed = parsed.data
    if isinstance(parsed, (list, tuple)):
        for part in parsed:
            yield from _opcode_names(part)
    elif getattr(parsed, "name", None):
        yield parsed.name


def test_every_pattern_parses_on_python_3_10():
    patterns = list(_patterns())
    # The scan sees the host-name, OID and time patterns, so it would see another one.
    assert len(patterns) >= 15
    newer = [f"{site} {name}" for site, pattern in patterns for name in _opcode_names(PATTERN_PARSER.parse(pattern))
             if name in NEWER_SYNTAX]
    assert newer == []


# Each record class with __slots__, and how to build a fresh one; a required list is passed fresh, as its callers do.
RECORDS = {
    LintOptions: LintOptions,
    InputDocument: lambda: InputDocument("doc"),
    CertificateReport: lambda: CertificateReport("doc", "", "accepted", 0, None, []),
    ParsedCertificate: lambda: ParsedCertificate([]),
    ParsedTbs: ParsedTbs,
    AlgorithmId: lambda: AlgorithmId(parse_tlv_tree(b"\x05\x00")),
    ExtensionEntry: lambda: ExtensionEntry(0, False, parse_tlv_tree(b"\x05\x00"), None),
    Registry: Registry,
    Histogram: Histogram,
    AnalysisResult: AnalysisResult,
    CrossTab: CrossTab,
}


def _containers(value):
    """Each list, dict or set in a slot's value, and in the values of a dict it holds."""
    if isinstance(value, (list, dict, set)):
        yield value
    if isinstance(value, dict):
        for inner in value.values():
            yield from _containers(inner)


def test_record_classes_have_slots_and_share_no_list_or_dict():
    modules = [importlib.import_module(f"derlint.{m.name}") for m in pkgutil.iter_modules(derlint.__path__)]
    slotted = {
        cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and "__slots__" in vars(cls) and not issubclass(cls, tuple)
    }
    # The scan node has no constructor, and the walk context lives for one walk.
    assert {cls.__name__ for cls in slotted} - {cls.__name__ for cls in RECORDS} == {"TlvNode", "WalkContext"}
    for cls, build in RECORDS.items():
        first, second = build(), build()
        assert not hasattr(first, "__dict__"), cls.__name__
        held = [id(c) for r in (first, second) for slot in cls.__slots__ for c in _containers(getattr(r, slot))]
        assert len(held) == len(set(held)), cls.__name__
