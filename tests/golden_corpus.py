"""Golden lock: derlint's lint output over a fixed, seeded corpus.

The corpus is built only from the independent encoder and the planted
catalog in ``support``:

* the planted fixtures, the accepted base and CA certificates, the
  keyCertSign attack certificate and the scaling certificates at 1, 10,
  100 and 1000 SAN entries;
* subjectAltName and authorityKeyIdentifier seeds whose directoryName
  carries a defect, so diagnostics inside a re-entered payload's Name
  are locked too;
* for every seed above: eight seeded one-byte flips, one seeded
  truncation and one trailing 0x00;
* 2,000 seeded random inputs, half of them wrapped in a SEQUENCE header
  so they get past the first octet.

Each document becomes one JSON line, ``[id, outcome, [[code, severity,
byte_offset, path, message], ...]]``, with no timing.  Regenerate the
committed file after a deliberate output change with:

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

from derlint.ingest import LintOptions, lint_bytes
from support import certs
from support import encoder as enc

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_lint.jsonl"

SEED = 0x601DE
FLIPS = 8
RANDOM_INPUTS = 2_000
RANDOM_MAX_LEN = 600


def _directory_name_seeds() -> list[tuple[str, bytes]]:
    defects = {
        "unknown-attribute": enc.seq(enc.set_of(enc.seq(enc.oid("1.2.3.4.5"), enc.printable("x")))),
        "empty-string": certs.name(value=enc.printable("")),
        "bad-printable": certs.name(value=enc.printable("user@host")),
    }
    base = certs.CertSpec()
    out = []
    for label, dn in defects.items():
        san_body = enc.seq(enc.ctx_prim(2, b"example.com"), enc.ctx(4, dn))
        san = certs.extension(certs.OID_SAN, san_body)
        out.append((f"san-dirname-{label}", certs.build(replace(base, exts=(certs.aki(), san)))))
        aki_body = enc.seq(enc.ctx_prim(0, certs.KEYID), enc.ctx(1, enc.ctx(4, dn)), enc.ctx_prim(2, b"\x01"))
        aki = certs.extension(certs.OID_AKI, aki_body)
        out.append((f"aki-dirname-{label}", certs.build(replace(base, exts=(aki,)))))
    return out


def seeds() -> list[tuple[str, bytes]]:
    out = [(f"fixture-{f.name}", f.data) for f in certs.planted_fixtures()]
    out += [
        ("base-cert", certs.base_cert()),
        ("ca-cert-accepted", certs.ca_cert_accepted()),
        ("attack-without-bc", certs.attack_without_bc()),
    ]
    out += [(f"scaling-{n}", certs.scaling_cert(n)) for n in (1, 10, 100, 1000)]
    out += _directory_name_seeds()
    return out


def documents() -> list[tuple[str, bytes]]:
    rng = random.Random(SEED)
    out = []
    for name, data in seeds():
        out.append((name, data))
        for k in range(FLIPS):
            pos = rng.randrange(len(data))
            flipped = data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1 :]
            out.append((f"{name}/flip{k}@{pos}", flipped))
        cut = rng.randrange(1, len(data))
        out.append((f"{name}/cut@{cut}", data[:cut]))
        out.append((f"{name}/trailing", data + b"\x00"))
    for i in range(RANDOM_INPUTS):
        blob = rng.randbytes(rng.randrange(0, RANDOM_MAX_LEN))
        out.append((f"random-{i}", enc.seq(blob) if i % 2 else blob))
    return out


def render() -> str:
    """The golden file's text for the current derlint."""
    options = LintOptions(fmt="der", timing=False)
    lines = []
    for doc_id, data in documents():
        report = lint_bytes(data, doc_id, options)
        diagnostics = [
            [d.code.value, d.severity.value, d.byte_offset, d.grammar_path, d.message]
            for d in report.diagnostics
        ]
        lines.append(json.dumps([doc_id, report.outcome, diagnostics], separators=(",", ":")))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
