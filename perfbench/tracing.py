"""Spans around the calls into each derlint layer, recorded from outside.

Each wrapped function is replaced under the name its callers look up,
for example ``derlint.extensions.parse_tlv_tree`` for the extension
payload re-entry.  A span's self time is its duration minus the time
its child spans cover.  Self times, call counts and the TLV node counts
are folded into totals as spans close, and the first ``keep`` spans are
also kept whole so they can be written out at the end.
"""

from __future__ import annotations

import types
from collections import Counter
from importlib import import_module
from time import perf_counter_ns

# The value decoders each walk module imports.
_VALUE_FUNCTIONS = {
    "grammar": ("decode_bit_string", "decode_integer", "decode_oid", "dotted", "validate_time"),
    "names": ("decode_oid", "dotted", "validate_charset"),
    "extensions": ("decode_bit_string", "decode_boolean", "decode_integer", "decode_oid", "dotted", "validate_charset"),
}

# (object path, attribute, layer).  The object is a module or a class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("derlint", "lint_bytes", "ingest"),
    ("derlint.ingest", "load_input", "ingest"),
    ("derlint.ingest", "load_documents", "ingest"),
    ("derlint.ingest", "lint", "ingest"),
    ("derlint.cli", "run_batch", "ingest"),
    ("derlint.cli", "lint", "ingest"),
    ("derlint.cli", "load_input", "ingest"),
    ("derlint.ingest", "parse_certificate", "grammar"),
    ("derlint.grammar", "parse_tlv_tree", "der"),
    ("derlint.extensions", "parse_tlv_tree", "der"),
    *(("derlint." + mod, fn, "values") for mod, fns in _VALUE_FUNCTIONS.items() for fn in fns),
    ("derlint.registry.Registry", "lookup", "registry"),
    ("derlint.grammar", "default_registry", "registry"),
    ("derlint.grammar", "parse_name", "names"),
    ("derlint.extensions", "parse_name", "names"),
    ("derlint.grammar", "parse_extensions", "extensions"),
    ("derlint.extensions", "parse_general_name", "extensions"),
    ("derlint.grammar", "run_cross_checks", "matchers"),
    ("derlint.grammar", "check_key_usage_rules", "usage"),
    ("derlint.ingest.CertificateReport", "to_json_dict", "cli"),
    ("derlint.cli.json", "dumps", "cli"),
    ("derlint.cli", "read_records", "differential"),
    ("derlint.cli", "analyze", "differential"),
    ("derlint.cli", "cross_tabulate", "differential"),
    ("derlint.cli", "load_report_lines", "differential"),
    ("derlint.differential", "read_records", "differential"),
    ("derlint.differential", "analyze", "differential"),
    ("derlint.differential", "cross_tabulate", "differential"),
)

LAYERS = ("der", "values", "registry", "grammar", "names", "extensions", "matchers", "usage", "ingest", "cli", "differential")

_DOC_ROOT = ("derlint.ingest", "parse_certificate")
_GENERAL_NAME = ("derlint.extensions", "parse_general_name")
_LOOKUP = ("derlint.registry.Registry", "lookup")
_LINT = {("derlint.ingest", "lint"), ("derlint.cli", "lint")}


def _resolve(path: str):
    """The module or class at a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def count_nodes(root) -> int:
    count = 0
    todo = [root]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(getattr(node, "children", ()))
    return count


class Tracer:
    def __init__(self, keep: int = 5000):
        self.keep = keep
        self.self_ns: Counter = Counter()  # by layer
        self.calls: Counter = Counter()  # by layer
        self.general_names = 0
        self.lookups = 0
        self.nodes = 0
        self.der_rejects = 0
        self.spans: list = []  # (name, start_ns, end_ns, parent index, document)
        self.doc = None
        # Host-speed scale of the stretch being traced (see hostspeed.py).
        self.scale = 1.0
        self.measured_layers: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.measured_layers = set()
        self.missing = []
        for path, attr, layer in TARGETS:
            owner = self._json_proxy(path) if path.endswith(".json") else _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(f"{path}.{attr}", (path, attr), layer, original))
            self.measured_layers.add(layer)

    def _json_proxy(self, path: str):
        """Give a module its own copy of the json namespace to patch."""
        module = _resolve(path.rsplit(".", 1)[0])
        real = getattr(module, "json", None) if module is not None else None
        if not isinstance(real, types.ModuleType):
            return None
        proxy = types.SimpleNamespace(**vars(real))
        self._patches.append((module, "json", real))
        module.json = proxy
        return proxy

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, key: tuple[str, str], layer: str, fn):
        tracer = self
        stack = self._stack
        is_der = layer == "der"
        is_root = key == _DOC_ROOT
        is_lint = key in _LINT
        if key == _GENERAL_NAME:
            counter = "general_names"
        elif key == _LOOKUP:
            counter = "lookups"
        else:
            counter = None

        def traced(*args, **kwargs):
            if is_lint and args:
                tracer.doc = getattr(args[0], "doc_id", tracer.doc)
            parent = stack[-1] if stack else None
            # [child ns, children were all der or registry spans,
            #  last child was a der span that raised, kept index]
            frame = [0, True, False, -1]
            if len(tracer.spans) < tracer.keep:
                frame[3] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            raised = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.self_ns[layer] += (duration - frame[0]) * tracer.scale
                tracer.calls[layer] += 1
                if counter is not None:
                    setattr(tracer, counter, getattr(tracer, counter) + 1)
                if is_root and frame[1] and frame[2]:
                    tracer.der_rejects += 1
                if frame[3] >= 0:
                    up = parent[3] if parent is not None else -1
                    tracer.spans[frame[3]] = (name, start, end, up, tracer.doc)
                if is_der and not raised:
                    tracer.nodes += count_nodes(result)
                if parent is not None:
                    # Time spent here after `end` is tracing cost: keep it
                    # out of the parent's self time too.
                    parent[0] += perf_counter_ns() - start
                    parent[1] = parent[1] and layer in ("der", "registry")
                    parent[2] = is_der and raised

        traced.__wrapped__ = fn
        return traced

    def kept_spans(self) -> list:
        return [s for s in self.spans if s is not None]

    def totals(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "general_names": self.general_names,
            "lookups": self.lookups,
            "nodes": self.nodes,
            "der_rejects": self.der_rejects,
            "measured_layers": sorted(self.measured_layers),
            "missing": self.missing,
            "spans": self.kept_spans(),
        }

    def merge(self, totals: dict, scale: float, layers: set[str] | None = None) -> None:
        """Add another tracer's totals, times scaled; with layers, only those layers' time and calls."""
        keep = (lambda layer: True) if layers is None else layers.__contains__
        self.self_ns.update({k: v * scale for k, v in totals["self_ns"].items() if keep(k)})
        self.calls.update({k: v for k, v in totals["calls"].items() if keep(k)})
        if layers is not None:
            return
        self.general_names += totals["general_names"]
        self.lookups += totals["lookups"]
        self.nodes += totals["nodes"]
        self.der_rejects += totals["der_rejects"]
        self.measured_layers.update(totals["measured_layers"])
        self.missing = sorted(set(self.missing) | set(totals["missing"]))
        room = self.keep - len(self.spans)
        self.spans.extend(totals["spans"][: max(0, room)])


def layer_metrics(tracer: Tracer, docs: int, records: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit)."""

    def us(layer: str) -> float:
        return tracer.self_ns[layer] / 1000.0 / docs if docs else 0.0

    def per_doc(n: int) -> float:
        return n / docs if docs else 0.0

    return {
        "der.us_per_doc": (us("der"), "us/doc"),
        "der.calls_per_doc": (per_doc(tracer.calls["der"]), "calls/doc"),
        "der.nodes_per_doc": (per_doc(tracer.nodes), "nodes/doc"),
        "der.reject_share": (per_doc(tracer.der_rejects), "ratio"),
        "values.us_per_doc": (us("values"), "us/doc"),
        "values.calls_per_doc": (per_doc(tracer.calls["values"]), "calls/doc"),
        "registry.lookups_per_doc": (per_doc(tracer.lookups), "lookups/doc"),
        "registry.us_per_doc": (us("registry"), "us/doc"),
        "grammar.us_per_doc": (us("grammar"), "us/doc"),
        "names.us_per_doc": (us("names"), "us/doc"),
        "names.calls_per_doc": (per_doc(tracer.calls["names"]), "calls/doc"),
        "extensions.us_per_doc": (us("extensions"), "us/doc"),
        "extensions.general_names_per_doc": (per_doc(tracer.general_names), "names/doc"),
        "matchers.us_per_doc": (us("matchers"), "us/doc"),
        "usage.us_per_doc": (us("usage"), "us/doc"),
        "ingest.us_per_doc": (us("ingest"), "us/doc"),
        "cli.report_us_per_doc": (us("cli"), "us/doc"),
        "differential.us_per_record": (
            tracer.self_ns["differential"] / 1000.0 / records if records else 0.0,
            "us/record",
        ),
    }

