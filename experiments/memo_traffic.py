"""How often Registry.silent_extensions answers an extension entry, by extnID, over certificates on this machine.

The memo of silent extension entries pays off only where certificates repeat byte-identical entries, as the
leaves of one issuing CA do (its authorityKeyIdentifier, keyUsage, extendedKeyUsage, basicConstraints and
CRL and AIA pointers).  This script lints each source's distinct documents once, in order, against a fresh
registry, and counts per extnID the entries, the entries short enough to be remembered, and the entries the
memo answered, so that the extension walk did not reach them.  The sources:

* /etc/ssl/certs, its *.pem files;
* CPython's test/certdata, its *.pem files;
* 20,000 distinct typical documents of perfbench's corpus, from seeds 101 and up (perfbench/corpus.py).

A source that is missing is skipped; nothing is installed or downloaded.  The first two are trust-store roots
and test certificates, not a scan of issued leaves: roots come from many CAs, and a root's AKI, where it has
one, names itself.  Run from the repository root:

    python3 experiments/memo_traffic.py

It prints one Markdown table per source.
"""

from __future__ import annotations

import base64
import binascii
import importlib.util
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import derlint.extensions as extensions  # noqa: E402
import derlint.grammar as grammar  # noqa: E402
from derlint.diagnostics import RecognitionError  # noqa: E402
from derlint.ingest import LintOptions, lint_bytes  # noqa: E402
from derlint.registry import load_registry  # noqa: E402
from derlint.values import TAG_OID, TAG_SEQUENCE, decode_oid, dotted  # noqa: E402

DISTINCT = 20_000
FIRST_SEED = 101


# A CERTIFICATE block anywhere in a file: CPython's files put a key block or openssl's text dump before theirs,
# which derlint's reader refuses as a whole.
_BLOCK = re.compile(r"-----BEGIN CERTIFICATE-----\n(.*?)-----END CERTIFICATE-----", re.S)


def _pem_documents(paths: list[Path]) -> list[bytes]:
    seen: set[bytes] = set()
    for path in paths:
        for body in _BLOCK.findall(path.read_text("ascii", errors="replace")):
            try:
                seen.add(base64.b64decode(body))
            except binascii.Error:  # badcert.pem's block is not base64
                continue
    return sorted(seen)


def system_bundle() -> list[bytes] | None:
    folder = Path("/etc/ssl/certs")
    return _pem_documents(sorted(folder.glob("*.pem"))) if folder.is_dir() else None


def cpython_certdata() -> list[bytes] | None:
    spec = importlib.util.find_spec("test")
    if spec is None or not spec.submodule_search_locations:
        return None
    folder = Path(list(spec.submodule_search_locations)[0]) / "certdata"
    return _pem_documents(sorted(folder.glob("*.pem"))) if folder.is_dir() else None


def typical_documents() -> list[bytes] | None:
    try:
        import corpus
    except ImportError:
        return None
    seen: set[bytes] = set()
    docs: list[bytes] = []
    seed = FIRST_SEED
    while len(docs) < DISTINCT:
        for doc in corpus.typical_docs(random.Random(seed), 2000):
            if doc.data not in seen and len(docs) < DISTINCT:
                seen.add(doc.data)
                docs.append(doc.data)
        seed += 1
    return docs


def _extn_name(node, names: dict[str, str]) -> str:
    kids = node.children
    if node.tag != TAG_SEQUENCE or not kids or kids[0].tag != TAG_OID:
        return "(misshapen entry)"
    try:
        oid = dotted(decode_oid(kids[0]))
    except RecognitionError:
        return "(bad extnID)"
    return names.get(oid, oid)


def traffic(docs: list[bytes]) -> dict[str, list[int]]:
    """extnID (the registry's grammar name, or the dotted OID) -> [entries, remembered size, answered]."""
    reg = load_registry()
    options = LintOptions(fmt="der", timing=False, registry=reg)
    names = reg.by_role["extension"]
    rows: dict[str, list[int]] = {}
    walked: set[int] = set()  # ids of the entries of the current block that reached the walk
    walk, parse = extensions._parse_extension_entry, grammar.parse_extensions

    def walk_seen(node, *args):
        walked.add(id(node))
        return walk(node, *args)

    def parse_seen(wrapper, ctx, *args):
        walked.clear()
        out = parse(wrapper, ctx, *args)
        if len(wrapper.children) == 1 and wrapper.children[0].tag == TAG_SEQUENCE:
            for node in wrapper.children[0].children:
                row = rows.setdefault(_extn_name(node, names), [0, 0, 0])
                row[0] += 1
                row[1] += node.content_length <= extensions._MEMO_MAX_CONTENT
                row[2] += id(node) not in walked
        return out

    extensions._parse_extension_entry, grammar.parse_extensions = walk_seen, parse_seen
    try:
        for data in docs:
            lint_bytes(data, "doc", options)
    finally:
        extensions._parse_extension_entry, grammar.parse_extensions = walk, parse
    return rows


def table(title: str, docs: list[bytes], rows: dict[str, list[int]]) -> str:
    limit = extensions._MEMO_MAX_CONTENT
    lines = [
        f"{title}: {len(docs):,} distinct documents",
        "",
        f"| extnID | entries | at most {limit} octets | answered by the memo | share |",
        "|---|---:|---:|---:|---:|",
    ]
    total = [sum(row[k] for row in rows.values()) for k in range(3)]
    for name, (entries, short, hits) in sorted(rows.items(), key=lambda item: (-item[1][0], item[0])):
        lines.append(f"| {name} | {entries:,} | {short:,} | {hits:,} | {hits / entries:.1%} |")
    share = total[2] / total[0] if total[0] else 0.0
    lines.append(f"| all | {total[0]:,} | {total[1]:,} | {total[2]:,} | {share:.1%} |")
    return "\n".join(lines)


def main() -> int:
    sources = (
        ("/etc/ssl/certs", system_bundle),
        ("CPython test/certdata", cpython_certdata),
        (f"typical, seeds {FIRST_SEED} and up", typical_documents),
    )
    for title, load in sources:
        docs = load()
        if not docs:
            print(f"{title}: not found, skipped\n")
            continue
        print(table(title, docs, traffic(docs)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
