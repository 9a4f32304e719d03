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
  so they get past the first octet;
* an extension-shape block with its own seed, after the random inputs so
  the lines above stay a fixed prefix: well-formed and shape-defective
  bodies for each of the 17 registered extension grammars (empty, out of
  order, repeated, wrong class, wrong constructed bit, a trailing field)
  and RSASSA-PSS parameter variants, each followed by eight seeded
  one-byte flips inside the body or the parameters;
* a tag-mismatch block with its own seed, after the shape block: one
  certificate for each universal-tag slot no line above reaches (the
  critical flag, the key algorithm parameters, the key and signature
  bits, version and validity), for the unused-bit and empty key and
  signature checks, and for two malformed nameRelativeToCRLIssuer
  choices, each followed by eight seeded one-byte flips inside the
  replaced field;
* a reach block with its own seed, after the tag block: one certificate
  for each diagnostic site of the walk (grammar.py, names.py,
  extensions.py) that no line above reaches, each followed by eight
  seeded one-byte flips inside the replaced field.  test_golden.py
  checks that the corpus runs every ctx.add line and makes every tag
  check, decoder call, OID read and payload re-entry of the walk fail;
* a container block, after the reach block: armored texts built from the
  base, CA and a few planted certificates (one, two and twelve blocks,
  CRLF, explanatory text, comment lines, a private-key block, and each
  armor and base64 defect), plus empty and whitespace-only input, each
  read through load_documents under --format auto and pem, a few under
  der as well, so the container layer is locked too;
* a value block with its own seed, after the container block: one
  certificate for each error of the value decoders (values.py) and of
  the length automaton (der.py) that no line above reaches, for URI and
  rfc822Name subtrees in nameConstraints, and for compressed EC points,
  each followed by eight seeded one-byte flips inside the replaced
  field.  test_golden.py checks that the corpus reaches every raise of
  values.py and der.py but three that no certificate can.

Each document becomes one JSON line, ``[id, outcome, [[code, severity,
byte_offset, path, message], ...]]``, with no timing.  Regenerate the
committed file after a deliberate output change with:

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import base64
import json
import random
from dataclasses import replace
from functools import partial
from pathlib import Path

from derlint.ingest import LintOptions, lint, lint_bytes, load_documents
from support import certs
from support import encoder as enc

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_lint.jsonl"

SEED = 0x601DE
FLIPS = 8
RANDOM_INPUTS = 2_000
RANDOM_MAX_LEN = 600
SHAPE_SEED = 0x5EA9E
TAG_SEED = 0x7A65
REACH_SEED = 0x2EAC4
VALUE_SEED = 0x7A1E5


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


def _content(element: bytes) -> bytes:
    """The content octets of a short-form element built by the encoder."""
    return element[2:]


_OCSP = "1.3.6.1.5.5.7.48.1"
_POLICY = "2.23.140.1.2.1"
_SHA256 = "2.16.840.1.101.3.4.2.1"
_MGF1 = "1.2.840.113549.1.1.8"
_PSS = "1.2.840.113549.1.1.10"
_URI = enc.ctx_prim(6, b"http://crl.example/ca.crl")
_DNS = enc.ctx_prim(2, b"example.com")
_REASONS = enc.ctx_prim(1, _content(enc.named_bit_string({1, 3})))


def _general_names_variants() -> dict[str, bytes]:
    edi = {
        "ok": enc.ctx(5, enc.ctx(0, enc.utf8("Assigner")), enc.ctx(1, enc.utf8("Party"))),
        "out-of-order": enc.ctx(5, enc.ctx(1, enc.utf8("Party")), enc.ctx(0, enc.utf8("Assigner"))),
        "repeated": enc.ctx(5, enc.ctx(1, enc.utf8("Party")), enc.ctx(1, enc.utf8("Party"))),
        "wrong-class": enc.ctx(5, enc.utf8("Party")),
        "wrong-constructed": enc.ctx(5, enc.ctx_prim(1, b"Party")),
        "no-party": enc.ctx(5, enc.ctx(0, enc.utf8("Assigner"))),
    }
    out = {
        "ok": enc.seq(
            _DNS,
            enc.ctx_prim(1, b"user@example.com"),
            enc.ctx_prim(6, b"https://www.example.com/"),
            enc.ctx_prim(7, b"\xc0\x00\x02\x01"),
            enc.ctx(4, certs.name()),
            enc.ctx_prim(8, _content(enc.oid("1.2.3.4"))),
            enc.ctx(0, enc.oid("1.3.6.1.4.1.311.20.2.3"), enc.ctx(0, enc.utf8("upn"))),
            enc.ctx(3, enc.seq()),
        ),
        "empty": enc.seq(),
        "not-sequence": enc.set_of(_DNS),
        "wrong-class": enc.seq(enc.ia5("example.com")),
        "wrong-constructed": enc.seq(enc.ctx(2, enc.ia5("example.com"))),
        "unknown-tag": enc.seq(enc.ctx_prim(9, b"x")),
        "trailing": enc.seq(_DNS, enc.null()),
        "bad-names": enc.seq(
            enc.ctx_prim(2, b"-bad-.example"),
            enc.ctx_prim(1, b"no-at-sign"),
            enc.ctx_prim(6, b"no-scheme"),
            enc.ctx_prim(7, b"\x01\x02\x03"),
            enc.ctx_prim(2, b"caf\xc3\xa9.example"),
        ),
        "bad-shapes": enc.seq(
            enc.ctx_prim(0, b"x"),
            enc.ctx(0, enc.integer(1), enc.ctx(0, enc.null())),
            enc.ctx(0, enc.oid("1.2.3"), enc.null()),
            enc.ctx_prim(3, b"x"),
            enc.ctx_prim(4, b"x"),
            enc.ctx(7, enc.null()),
            enc.ctx(8, enc.oid("1.2.3")),
        ),
    }
    out.update({f"edi-{label}": enc.seq(name) for label, name in edi.items()})
    return out


def _info_access_variants() -> dict[str, bytes]:
    ocsp = enc.seq(enc.oid(_OCSP), enc.ctx_prim(6, b"http://ocsp.example"))
    return {
        "ok": enc.seq(ocsp),
        "empty": enc.seq(),
        "not-sequence": enc.set_of(ocsp),
        "description-not-sequence": enc.seq(enc.set_of(enc.oid(_OCSP), _URI)),
        "description-wrong-count": enc.seq(enc.seq(enc.oid(_OCSP))),
        "method-not-oid": enc.seq(enc.seq(enc.integer(1), _URI)),
        "trailing": enc.seq(enc.seq(enc.oid(_OCSP), _URI, enc.null())),
        "bad-location": enc.seq(enc.seq(enc.oid(_OCSP), enc.ia5("http://ocsp.example"))),
    }


def _distribution_points_variants() -> dict[str, bytes]:
    name = enc.ctx(0, enc.ctx(0, _URI))
    issuer = enc.ctx(2, _URI)
    return {
        "ok": enc.seq(enc.seq(name)),
        "ok-full": enc.seq(enc.seq(name, _REASONS, issuer), enc.seq(issuer)),
        "ok-relative": enc.seq(enc.seq(enc.ctx(0, enc.ctx(1, enc.seq(enc.oid(certs.OID_CN), enc.utf8("CRL")))))),
        "empty": enc.seq(),
        "not-sequence": enc.set_of(enc.seq(name)),
        "point-empty": enc.seq(enc.seq()),
        "point-not-sequence": enc.seq(enc.set_of(name)),
        "out-of-order": enc.seq(enc.seq(issuer, name)),
        "repeated": enc.seq(enc.seq(name, name)),
        "diagnostic-before-order": enc.seq(enc.seq(enc.ctx(0, enc.ctx(0)), _REASONS, _REASONS)),
        "wrong-class": enc.seq(enc.seq(enc.seq(_URI))),
        "wrong-class-number-1": enc.seq(enc.seq(enc.boolean(True))),
        "tag-too-high": enc.seq(enc.seq(enc.ctx(3, _URI))),
        "name-primitive": enc.seq(enc.seq(enc.ctx_prim(0, b"x"))),
        "reasons-constructed": enc.seq(enc.seq(name, enc.ctx(1, enc.named_bit_string({1})))),
        "issuer-primitive": enc.seq(enc.seq(name, enc.ctx_prim(2, b"x"))),
        "only-reasons": enc.seq(enc.seq(_REASONS)),
        "only-reasons-then-stop": enc.seq(enc.seq(_REASONS, enc.null())),
        "reasons-beyond-range": enc.seq(enc.seq(name, enc.ctx_prim(1, _content(enc.named_bit_string({9}))))),
        "name-bad-choice": enc.seq(enc.seq(enc.ctx(0, enc.ctx(2, _URI)))),
        "relative-bad": enc.seq(enc.seq(enc.ctx(0, enc.ctx(1, enc.integer(1))))),
        "empty-names": enc.seq(enc.seq(enc.ctx(0, enc.ctx(0)), enc.ctx(2))),
        "trailing": enc.seq(enc.seq(name, issuer, enc.null())),
    }


def _extension_shape_variants() -> dict[str, dict[str, bytes]]:
    """Body variants per registered extension grammar, keyed by extnID."""
    keyid = enc.ctx_prim(0, certs.KEYID)
    aki_issuer = enc.ctx(1, _DNS)
    aki_serial = enc.ctx_prim(2, b"\x01")
    cps = enc.seq(enc.oid("1.3.6.1.5.5.7.2.1"), enc.ia5("https://cps.example/"))
    notice_ref = enc.seq(enc.utf8("Example Org"), enc.seq(enc.integer(1), enc.integer(2)))
    notice = enc.seq(enc.oid("1.3.6.1.5.5.7.2.2"), enc.seq(notice_ref, enc.utf8("Notice text")))

    def policy(*qualifiers: bytes) -> bytes:
        return enc.seq(enc.seq(enc.oid(_POLICY), enc.seq(*qualifiers)))

    mapping = enc.seq(enc.oid(_POLICY), enc.oid("1.2.3.4"))
    attribute = enc.seq(enc.oid("1.3.6.1.5.5.7.9.1"), enc.set_of(enc.gentime("19700101000000Z")))
    permitted = enc.ctx(0, enc.seq(_DNS))
    excluded = enc.ctx(1, enc.seq(enc.ctx_prim(7, b"\x0a\x00\x00\x00\xff\x00\x00\x00")))

    def subtree(*fields: bytes) -> bytes:
        return enc.seq(_DNS, *fields)

    skip0, skip1 = enc.ctx_prim(0, b"\x00"), enc.ctx_prim(1, b"\x02")
    names = _general_names_variants()
    points = _distribution_points_variants()
    return {
        "2.5.29.35": {
            "ok": enc.seq(keyid),
            "ok-full": enc.seq(keyid, aki_issuer, aki_serial),
            "empty": enc.seq(),
            "not-sequence": enc.octet_string(certs.KEYID),
            "out-of-order": enc.seq(keyid, aki_serial, aki_issuer),
            "repeated": enc.seq(keyid, keyid),
            "diagnostic-before-order": enc.seq(enc.ctx_prim(0, b""), aki_serial, aki_serial),
            "wrong-class": enc.seq(enc.octet_string(certs.KEYID)),
            "tag-too-high": enc.seq(keyid, enc.ctx_prim(3, b"x")),
            "wrong-constructed": enc.seq(enc.ctx(0, enc.octet_string(certs.KEYID)), enc.ctx_prim(1, b"x")),
            "serial-constructed": enc.seq(enc.ctx(2, enc.integer(1))),
            "issuer-without-serial": enc.seq(keyid, aki_issuer),
            "issuer-empty": enc.seq(keyid, enc.ctx(1), aki_serial),
            "stop-skips-pairing": enc.seq(aki_issuer, enc.null()),
            "trailing": enc.seq(keyid, aki_issuer, aki_serial, enc.integer(1)),
        },
        "2.5.29.14": {
            "ok": enc.octet_string(certs.KEYID),
            "empty": enc.octet_string(b""),
            "not-octet-string": enc.seq(),
            "constructed": enc.tlv(4, enc.octet_string(certs.KEYID), constructed=True),
            "trailing": enc.octet_string(certs.KEYID) + enc.null(),
        },
        "2.5.29.15": {
            "ok": enc.named_bit_string({0, 2}),
            "empty": enc.named_bit_string(set()),
            "not-bit-string": enc.seq(),
            "constructed": enc.tlv(3, enc.named_bit_string({0}), constructed=True),
            "beyond-range": enc.named_bit_string({9}),
            "trailing": enc.named_bit_string({0}) + enc.null(),
        },
        "2.5.29.32": {
            "ok": enc.seq(enc.seq(enc.oid(_POLICY))),
            "ok-qualifiers": policy(cps, notice),
            "empty": enc.seq(),
            "not-sequence": enc.set_of(enc.seq(enc.oid(_POLICY))),
            "policy-not-sequence": enc.seq(enc.set_of(enc.oid(_POLICY))),
            "policy-empty": enc.seq(enc.seq()),
            "policy-id-not-oid": enc.seq(enc.seq(enc.integer(1))),
            "policy-trailing": enc.seq(enc.seq(enc.oid(_POLICY), enc.seq(cps), enc.null())),
            "qualifiers-empty": policy(),
            "qualifiers-not-sequence": enc.seq(enc.seq(enc.oid(_POLICY), enc.set_of(cps))),
            "qualifier-not-sequence": policy(enc.set_of(enc.oid("1.3.6.1.5.5.7.2.1"))),
            "qualifier-wrong-count": policy(enc.seq(enc.oid("1.3.6.1.5.5.7.2.1"))),
            "cps-no-scheme": policy(enc.seq(enc.oid("1.3.6.1.5.5.7.2.1"), enc.ia5("cps.example"))),
            "cps-not-ia5": policy(enc.seq(enc.oid("1.3.6.1.5.5.7.2.1"), enc.utf8("https://cps.example/"))),
            "unknown-qualifier": policy(enc.seq(enc.oid("1.2.3.4"), enc.null())),
            "notice-not-sequence": policy(enc.seq(enc.oid("1.3.6.1.5.5.7.2.2"), enc.utf8("text"))),
            "notice-too-many": policy(
                enc.seq(enc.oid("1.3.6.1.5.5.7.2.2"), enc.seq(notice_ref, enc.utf8("a"), enc.utf8("b")))
            ),
            "notice-trailing": policy(enc.seq(enc.oid("1.3.6.1.5.5.7.2.2"), enc.seq(enc.utf8("a"), enc.utf8("b")))),
            "notice-ref-bad": policy(
                enc.seq(
                    enc.oid("1.3.6.1.5.5.7.2.2"),
                    enc.seq(enc.seq(enc.utf8("Org"), enc.set_of(enc.integer(1)), enc.null())),
                )
            ),
            "notice-numbers-bad": policy(
                enc.seq(enc.oid("1.3.6.1.5.5.7.2.2"), enc.seq(enc.seq(enc.utf8("Org"), enc.seq(enc.null()))))
            ),
        },
        "2.5.29.33": {
            "ok": enc.seq(mapping),
            "empty": enc.seq(),
            "not-sequence": enc.set_of(mapping),
            "mapping-not-sequence": enc.seq(enc.set_of(enc.oid(_POLICY), enc.oid("1.2.3.4"))),
            "mapping-wrong-count": enc.seq(enc.seq(enc.oid(_POLICY))),
            "member-not-oid": enc.seq(enc.seq(enc.integer(1), enc.oid("1.2.3.4"))),
            "trailing": enc.seq(enc.seq(enc.oid(_POLICY), enc.oid("1.2.3.4"), enc.null())),
        },
        "2.5.29.17": names,
        "2.5.29.18": names,
        "2.5.29.9": {
            "ok": enc.seq(attribute),
            "empty": enc.seq(),
            "not-sequence": enc.set_of(attribute),
            "attribute-not-sequence": enc.seq(enc.set_of(enc.oid("1.3.6.1.5.5.7.9.1"))),
            "attribute-wrong-count": enc.seq(enc.seq(enc.oid("1.3.6.1.5.5.7.9.1"))),
            "values-not-set": enc.seq(enc.seq(enc.oid("1.3.6.1.5.5.7.9.1"), enc.seq(enc.null()))),
            "values-empty": enc.seq(enc.seq(enc.oid("1.3.6.1.5.5.7.9.1"), enc.set_of())),
            "trailing": enc.seq(enc.seq(enc.oid("1.3.6.1.5.5.7.9.1"), enc.set_of(enc.null()), enc.null())),
        },
        "2.5.29.19": {
            "ok-ca": enc.seq(enc.boolean(True), enc.integer(0)),
            "ok-leaf": enc.seq(),
            "not-sequence": enc.boolean(True),
            "ca-false": enc.seq(enc.boolean(False)),
            "negative-path-len": enc.seq(enc.boolean(True), enc.integer(-1)),
            "out-of-order": enc.seq(enc.integer(0), enc.boolean(True)),
            "repeated": enc.seq(enc.boolean(True), enc.boolean(True)),
            "wrong-class": enc.seq(enc.ctx_prim(0, b"\xff")),
            "trailing": enc.seq(enc.boolean(True), enc.integer(1), enc.null()),
        },
        "2.5.29.30": {
            "ok": enc.seq(permitted, excluded),
            "ok-bounds": enc.seq(enc.ctx(0, subtree(enc.ctx_prim(0, b"\x01"), enc.ctx_prim(1, b"\x05")))),
            "empty": enc.seq(),
            "not-sequence": enc.set_of(permitted),
            "out-of-order": enc.seq(excluded, permitted),
            "repeated": enc.seq(permitted, permitted),
            "diagnostic-before-order": enc.seq(enc.ctx(0), permitted),
            "wrong-class": enc.seq(enc.seq(_DNS)),
            "tag-too-high": enc.seq(permitted, enc.ctx(2, enc.seq(_DNS))),
            "wrong-constructed": enc.seq(enc.ctx_prim(0, b"x")),
            "trailing": enc.seq(permitted, excluded, enc.null()),
            "subtree-empty": enc.seq(enc.ctx(0, enc.seq())),
            "subtree-not-sequence": enc.seq(enc.ctx(0, enc.set_of(_DNS))),
            "subtree-default-minimum": enc.seq(enc.ctx(0, subtree(enc.ctx_prim(0, b"\x00")))),
            "subtree-out-of-order": enc.seq(enc.ctx(0, subtree(enc.ctx_prim(1, b"\x05"), enc.ctx_prim(0, b"\x01")))),
            "subtree-repeated": enc.seq(enc.ctx(0, subtree(enc.ctx_prim(0, b"\x01"), enc.ctx_prim(0, b"\x02")))),
            "subtree-diagnostic-before-order": enc.seq(
                enc.ctx(0, subtree(enc.ctx_prim(0, b"\x00"), enc.ctx_prim(1, b"\xff"), enc.ctx_prim(1, b"\x01")))
            ),
            "subtree-wrong-class": enc.seq(enc.ctx(0, subtree(enc.integer(1)))),
            "subtree-wrong-constructed": enc.seq(enc.ctx(0, subtree(enc.ctx(0, enc.integer(1))))),
            "subtree-tag-too-high": enc.seq(enc.ctx(0, subtree(enc.ctx_prim(2, b"\x01")))),
            "subtree-bad-integer": enc.seq(enc.ctx(0, subtree(enc.ctx_prim(0, b"\x00\x01")))),
            "subtree-address-length": enc.seq(enc.ctx(0, enc.seq(enc.ctx_prim(7, b"\x0a\x00\x00\x00")))),
        },
        "2.5.29.36": {
            "ok": enc.seq(skip0, skip1),
            "empty": enc.seq(),
            "not-sequence": enc.set_of(skip0),
            "out-of-order": enc.seq(skip1, skip0),
            "repeated": enc.seq(skip0, skip0),
            "diagnostic-before-order": enc.seq(enc.ctx_prim(0, b"\xff"), skip1, skip1),
            "wrong-class": enc.seq(enc.integer(1)),
            "wrong-constructed": enc.seq(enc.ctx(0, enc.integer(1))),
            "tag-too-high": enc.seq(skip0, enc.ctx_prim(2, b"\x01")),
            "bad-integer": enc.seq(enc.ctx_prim(0, b"\x00\x01")),
            "trailing": enc.seq(skip0, skip1, enc.null()),
        },
        "2.5.29.37": {
            "ok": enc.seq(enc.oid(certs.OID_KP_SERVER_AUTH), enc.oid("1.3.6.1.5.5.7.3.2")),
            "empty": enc.seq(),
            "not-sequence": enc.set_of(enc.oid(certs.OID_KP_SERVER_AUTH)),
            "purpose-not-oid": enc.seq(enc.integer(1)),
            "trailing": enc.seq(enc.oid(certs.OID_KP_SERVER_AUTH), enc.null()),
        },
        "2.5.29.31": points,
        "2.5.29.46": points,
        "2.5.29.54": {
            "ok": enc.integer(0),
            "negative": enc.integer(-1),
            "not-integer": enc.seq(),
            "bad-integer": enc.tlv(2, b"\x00\x01"),
            "trailing": enc.integer(1) + enc.null(),
        },
        "1.3.6.1.5.5.7.1.1": _info_access_variants(),
        "1.3.6.1.5.5.7.1.11": _info_access_variants(),
    }


def _pss_variants() -> dict[str, bytes]:
    hash_alg = enc.ctx(0, enc.seq(enc.oid(_SHA256)))
    mask_alg = enc.ctx(1, enc.seq(enc.oid(_MGF1), enc.seq(enc.oid(_SHA256))))
    salt, trailer = enc.ctx(2, enc.integer(32)), enc.ctx(3, enc.integer(1))
    return {
        "ok": enc.seq(hash_alg, mask_alg, salt, trailer),
        "ok-defaults": enc.seq(),
        "not-sequence": enc.null(),
        "out-of-order": enc.seq(salt, hash_alg),
        "repeated": enc.seq(salt, salt),
        "wrong-class": enc.seq(enc.integer(32)),
        "wrong-constructed": enc.seq(enc.ctx_prim(2, b"\x20")),
        "tag-too-high": enc.seq(enc.ctx(4, enc.integer(1))),
        "two-in-slot": enc.seq(enc.ctx(2, enc.integer(1), enc.integer(2))),
        "algorithm-slot-bad": enc.seq(enc.ctx(0, enc.integer(1))),
        "integer-slot-bad": enc.seq(enc.ctx(2, enc.null())),
        "negative-salt": enc.seq(enc.ctx(2, enc.integer(-1))),
        "trailing": enc.seq(hash_alg, trailer, enc.null()),
    }


def _extension_shape_seeds() -> list[tuple[str, bytes, int, int]]:
    """(id, certificate, start, end): each seed with the region its flips hit."""
    base = certs.CertSpec()
    out = []
    for oid_str, variants in _extension_shape_variants().items():
        for label, body in variants.items():
            ext = certs.extension(oid_str, body)
            exts = (ext,) if oid_str == certs.OID_AKI else (certs.aki(), ext)
            data = certs.build(replace(base, exts=exts))
            end = data.index(ext) + len(ext)
            out.append((f"ext-{oid_str}-{label}", data, end - len(body), end))
    for label, params in _pss_variants().items():
        alg = enc.seq(enc.oid(_PSS), params)
        data = certs.build(replace(base, inner_alg=alg, outer_alg=alg))
        end = data.index(alg) + len(alg)
        out.append((f"pss-{label}", data, end - len(params), end))
    return out


_DSA = "1.2.840.10040.4.1"
_KEA = "2.16.840.1.101.2.1.1.22"
_EC = "1.2.840.10045.2.1"
_GOST = "1.2.643.2.2.19"


def _spki(alg_oid: str, params: bytes, key: bytes) -> bytes:
    return enc.seq(enc.seq(enc.oid(alg_oid), params), enc.bit_string(key))


def _tag_mismatch_variants() -> dict[str, tuple[str, bytes]]:
    """label -> (CertSpec field, its replacement); the last element of a replaced exts tuple is the one flipped."""
    value = enc.integer(int.from_bytes(b"\x5f" * 32, "big") | 1)
    modulus = enc.integer(int.from_bytes(b"\xc3" * 256, "big") | 1)
    rsa_alg = enc.seq(enc.oid(certs.OID_RSA_ENC), enc.null())
    signature = bytes(range(1, 65))

    def domain(middle: bytes) -> bytes:
        return enc.seq(enc.integer(7), middle, enc.integer(5))

    def relative_name(*attributes: bytes) -> bytes:
        return certs.extension("2.5.29.31", enc.seq(enc.seq(enc.ctx(0, enc.ctx(1, *attributes)))))

    critical = enc.seq(enc.oid(certs.OID_SKI), enc.integer(1), enc.octet_string(enc.octet_string(certs.KEYID)))
    return {
        "critical-not-boolean": ("exts", (certs.aki(), critical)),
        "named-curve-not-oid": ("spki", _spki(_EC, enc.null(), b"\x04" + b"\x11" * 64)),
        "dss-parameter-not-integer": ("spki", _spki(_DSA, domain(enc.null()), value)),
        "dh-parameter-not-integer": ("spki", _spki(certs.OID_DH, domain(enc.octet_string(b"\x02")), value)),
        "kea-domain-not-octet-string": ("spki", _spki(_KEA, enc.integer(1), value)),
        "gost-parameter-not-oid": (
            "spki",
            _spki(_GOST, enc.seq(enc.oid("1.2.643.2.2.35.1"), enc.integer(1)), enc.octet_string(b"\x11" * 64)),
        ),
        "rsa-exponent-not-integer": ("spki", enc.seq(rsa_alg, enc.bit_string(enc.seq(modulus, enc.null())))),
        "public-value-not-integer": (
            "spki",
            _spki(certs.OID_DH, domain(enc.integer(2)), enc.octet_string(b"\x5f" * 32)),
        ),
        "gost-key-not-octet-string": (
            "spki",
            _spki(_GOST, enc.seq(enc.oid("1.2.643.2.2.35.1"), enc.oid("1.2.643.2.2.30.1")), enc.integer(5)),
        ),
        "signature-value-not-bit-string": ("sig_value", enc.octet_string(signature)),
        "version-not-integer": ("version", enc.ctx(0, enc.octet_string(b"\x02"))),
        "validity-not-sequence": ("validity", enc.set_of(enc.utctime("200101000000Z"), enc.utctime("300101000000Z"))),
        "key-bits-unused": (
            "spki",
            enc.seq(rsa_alg, enc.bit_string(enc.seq(modulus, enc.integer(65537)) + b"\x80", 7)),
        ),
        "signature-bits-unused": ("sig_value", enc.bit_string(signature, 6)),
        "empty-public-key": ("spki", enc.seq(rsa_alg, enc.bit_string(b""))),
        "empty-signature": ("sig_value", enc.bit_string(b"")),
        "relative-name-empty": ("exts", (certs.aki(), relative_name())),
        "relative-name-integer-type": ("exts", (certs.aki(), relative_name(enc.seq(enc.integer(1), enc.null())))),
    }


def _replaced_field_seeds(prefix: str, variants: dict[str, dict]) -> list[tuple[str, bytes, int, int]]:
    """(id, certificate, start, end) for each label's CertSpec replacements.

    The flips hit the first replaced field, or the last element of a replaced exts tuple.
    """
    out = []
    for label, fields in variants.items():
        data = certs.build(replace(certs.CertSpec(), **fields))
        slot, value = next(iter(fields.items()))
        region = value[-1] if slot == "exts" else value
        start = data.index(region)
        out.append((f"{prefix}-{label}", data, start, start + len(region)))
    return out


_P256 = "1.2.840.10045.3.1.7"
_NOTICE = "1.3.6.1.5.5.7.2.2"


def _reach_variants() -> dict[str, dict]:
    """label -> CertSpec replacements: one certificate per walk diagnostic no line above reaches."""
    value = enc.integer(int.from_bytes(b"\x5f" * 32, "big") | 1)
    gost_params = enc.seq(enc.oid("1.2.643.2.2.35.1"), enc.oid("1.2.643.2.2.30.1"))
    gost_key = enc.octet_string(b"\x11" * 64)
    dh_params = (enc.integer(7), enc.integer(2), enc.integer(5), enc.integer(3))

    def dh(*parts: bytes) -> dict:
        return {"spki": _spki(certs.OID_DH, enc.seq(*dh_params, *parts), value)}

    def ext(oid_str: str, body: bytes) -> dict:
        return {"exts": (certs.aki(), certs.extension(oid_str, body))}

    policy = enc.seq(enc.oid(_POLICY))

    def notice(numbers: bytes) -> dict:
        ref = enc.seq(enc.utf8("Org"), numbers)
        return ext("2.5.29.32", enc.seq(enc.seq(enc.oid(_POLICY), enc.seq(enc.seq(enc.oid(_NOTICE), enc.seq(ref))))))

    pss = enc.oid(_PSS)
    ski_value = enc.octet_string(enc.octet_string(certs.KEYID))
    # Decoder failures: a non-minimal INTEGER, or an OID whose last arc is padded with 0x80.
    padded = enc.tlv(2, b"\x00\x01")
    padded_serial = enc.ctx_prim(2, b"\x00\x01")
    padded_oid = enc.raw_oid(b"\x2a\x80\x03")
    attribute_b, attribute_a = (enc.seq(enc.oid(certs.OID_CN), enc.printable(text)) for text in "ba")
    return {
        "algorithm-three-fields": {"inner_alg": enc.seq(enc.oid(certs.OID_SHA256_RSA), enc.null(), enc.null())},
        "absent-parameters-present": {"inner_alg": enc.seq(enc.oid(certs.OID_ECDSA_SHA256), enc.integer(1))},
        "null-with-content": {"inner_alg": enc.seq(enc.oid(certs.OID_SHA256_RSA), enc.tlv(5, b"\x00"))},
        "named-curve-missing": {"spki": enc.seq(enc.seq(enc.oid(_EC)), enc.bit_string(b"\x04" + b"\x11" * 64))},
        "curve-unregistered": {"spki": _spki(_EC, enc.oid("1.2.3.4"), b"\x04" + b"\x11" * 64)},
        "parameters-missing": {"spki": enc.seq(enc.seq(enc.oid(_DSA)), enc.bit_string(value))},
        "dss-two-parameters": {"spki": _spki(_DSA, enc.seq(enc.integer(7), enc.integer(5)), value)},
        "dh-two-parameters": {"spki": _spki(certs.OID_DH, enc.seq(enc.integer(7), enc.integer(2)), value)},
        "kea-domain-empty": {"spki": _spki(_KEA, enc.octet_string(b""), value)},
        "dh-validation-one-field": dh(enc.seq(enc.bit_string(b"\x01"))),
        "dh-seed-not-bit-string": dh(enc.seq(enc.octet_string(b"\x01"), enc.integer(1))),
        "dh-counter-not-integer": dh(enc.seq(enc.bit_string(b"\x01"), enc.null())),
        "dh-after-validation": dh(enc.seq(enc.bit_string(b"\x01"), enc.integer(1)), enc.null()),
        "ec-point-form": {"spki": _spki(_EC, enc.oid(_P256), b"\x05" + b"\x11" * 64)},
        "ec-point-length": {"spki": _spki(_EC, enc.oid(_P256), b"\x04" + b"\x11" * 10)},
        "gost-key-empty": {"spki": _spki(_GOST, gost_params, enc.octet_string(b""))},
        "version-two-integers": {"version": enc.ctx(0, enc.integer(2), enc.integer(2))},
        "version-1-encoded": {"version": enc.ctx(0, enc.integer(0))},
        # The subject is listed first, unchanged, so the flips hit it.
        "tbs-ends-early": {"subject": certs.SUBJECT, "spki": b"", "exts": None},
        "issuer-uid-constructed": {"issuer_uid": enc.ctx(1, enc.bit_string(b"\x01"))},
        "extensions-primitive": {"subject_uid": enc.ctx_prim(3, enc.seq()), "exts": None},
        "extension-one-field": {"exts": (certs.aki(), enc.seq(enc.oid(certs.OID_SKI)))},
        "policy-twice": ext("2.5.29.32", enc.seq(policy, policy)),
        "edi-party-primitive": ext(certs.OID_SAN, enc.seq(enc.ctx_prim(5, b"Party"))),
        "rdn-out-of-order": {"subject": enc.seq(enc.set_of(attribute_b, attribute_a))},
        "notice-numbers-not-sequence": notice(enc.set_of(enc.integer(1))),
        "curve-padded": {"spki": _spki(_EC, padded_oid, b"\x04" + b"\x11" * 64)},
        "dss-parameter-padded": {"spki": _spki(_DSA, enc.seq(padded, enc.integer(2), enc.integer(3)), value)},
        "gost-parameter-padded": {"spki": _spki(_GOST, enc.seq(padded_oid, enc.oid("1.2.643.2.2.30.1")), gost_key)},
        "dh-parameter-padded": {"spki": _spki(certs.OID_DH, enc.seq(padded, enc.integer(2), enc.integer(5)), value)},
        "dh-j-padded": {"spki": _spki(certs.OID_DH, enc.seq(*dh_params[:3], padded), value)},
        "dh-seed-empty": dh(enc.seq(enc.tlv(3, b""), enc.integer(1))),
        "dh-counter-padded": dh(enc.seq(enc.bit_string(b"\x01"), padded)),
        "pss-algorithm-padded": {"inner_alg": enc.seq(pss, enc.seq(enc.ctx(0, enc.seq(padded_oid))))},
        "pss-integer-padded": {"inner_alg": enc.seq(pss, enc.seq(enc.ctx(2, padded)))},
        "rsa-modulus-padded": {"spki": _spki(certs.OID_RSA_ENC, enc.null(), enc.seq(padded, value))},
        "signature-payload-truncated": {
            "sig_value": enc.bit_string(b"\x30\x05\x02\x01\x01"),
            "inner_alg": certs.ecdsa_alg(),
            "outer_alg": certs.ecdsa_alg(),
        },
        "version-padded": {"version": enc.ctx(0, enc.tlv(2, b"\x00\x02"))},
        "issuer-uid-empty": {"issuer_uid": enc.ctx_prim(1, b"")},
        "critical-non-der": {"exts": (certs.aki(), enc.seq(enc.oid(certs.OID_SKI), enc.tlv(1, b"\x01"), ski_value))},
        "aki-serial-padded": {"exts": (certs.extension(certs.OID_AKI, enc.seq(enc.ctx(1, _DNS), padded_serial)),)},
        "path-len-padded": ext(certs.OID_BC, enc.seq(enc.boolean(True), padded)),
        "qualifier-id-padded": ext("2.5.29.32", enc.seq(enc.seq(enc.oid(_POLICY), enc.seq(enc.seq(padded_oid, _DNS))))),
        "notice-number-padded": notice(enc.seq(padded)),
        "mapping-member-padded": ext("2.5.29.33", enc.seq(enc.seq(padded_oid, enc.oid("1.2.3.4")))),
        "registered-id-padded": ext(certs.OID_SAN, enc.seq(enc.ctx_prim(8, _content(padded_oid)))),
        "wrong-kind-bad-utf8": {"subject": enc.seq(enc.set_of(enc.seq(enc.oid("2.5.4.5"), enc.tlv(12, b"\xff"))))},
    }


def _value_variants() -> dict[str, dict]:
    """label -> CertSpec replacements: one certificate per value decoder or length error no line above reaches."""
    ski_value = enc.octet_string(enc.octet_string(certs.KEYID))

    def ext(*parts: bytes) -> dict:
        return {"exts": (certs.aki(), enc.seq(*parts))}

    def subject(value: bytes) -> dict:
        return {"subject": certs.name(value=value)}

    def name_constraints(*names: bytes) -> dict:
        body = enc.seq(enc.ctx(0, *(enc.seq(name) for name in names)))
        return ext(enc.oid("2.5.29.30"), enc.boolean(True), enc.octet_string(body))

    hosts = [enc.ctx_prim(6, host) for host in (b".example.com", b"host.example")]
    mails = [enc.ctx_prim(1, mail) for mail in (b"user@example.com", b"example.com", b".example.com")]
    return {
        "integer-empty": {"serial": enc.tlv(2, b"")},
        "integer-ff-pad": {"serial": enc.tlv(2, b"\xff\x80")},
        "boolean-empty": ext(enc.oid(certs.OID_SKI), enc.tlv(1, b""), ski_value),
        "boolean-two-octets": ext(enc.oid(certs.OID_SKI), enc.tlv(1, b"\xff\xff"), ski_value),
        "oid-empty": ext(enc.raw_oid(b""), ski_value),
        "oid-later-arc-overflow": ext(enc.oid("1.2.4294967296"), ski_value),
        "bit-string-empty-unused": {"issuer_uid": enc.ctx_prim(1, b"\x03")},
        "named-bits-unused-count": ext(enc.oid(certs.OID_KU), enc.octet_string(enc.tlv(3, b"\x03\x80"))),
        "utf8-nul": subject(enc.tlv(12, b"a\x00b")),
        "bmp-odd-length": subject(enc.tlv(30, b"\x00A\x00")),
        "bmp-nul": subject(enc.tlv(30, b"\x00A\x00\x00")),
        "bmp-surrogate": subject(enc.tlv(30, b"\x00A\xd8\x00")),
        "universal-length": subject(enc.tlv(28, b"\x00\x00\x00A\x00")),
        "universal-code-point": subject(enc.tlv(28, b"\x00\x00\x00A\x00\x11\x00\x00")),
        "teletex-nul": subject(enc.tlv(20, b"a\x00")),
        "time-month": {"validity": certs.validity("201301000000Z")},
        "time-of-day": {"validity": certs.validity("200101235960Z")},
        "length-82-leading-zero": {"serial": b"\x02\x82\x00\x01\x05"},
        "length-83-leading-zero": {"serial": b"\x02\x83\x00\x00\x01\x05"},
        "name-constraints-hosts-mails": name_constraints(*hosts, *mails),
        "name-constraints-bad-hosts-mails": name_constraints(enc.ctx_prim(6, b"http://host/"), enc.ctx_prim(1, b"@")),
        "ec-point-compressed": {"spki": _spki(_EC, enc.oid(_P256), b"\x02" + b"\x11" * 32)},
        "ec-point-compressed-length": {"spki": _spki(_EC, enc.oid(_P256), b"\x03" + b"\x11" * 64)},
    }


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
    out += _with_region_flips(random.Random(SHAPE_SEED), _extension_shape_seeds())
    tag_variants = {label: {slot: value} for label, (slot, value) in _tag_mismatch_variants().items()}
    out += _with_region_flips(random.Random(TAG_SEED), _replaced_field_seeds("tag", tag_variants))
    out += _with_region_flips(random.Random(REACH_SEED), _replaced_field_seeds("reach", _reach_variants()))
    return out


def _with_region_flips(rng: random.Random, region_seeds) -> list[tuple[str, bytes]]:
    """Each (id, certificate, start, end) seed, then FLIPS one-byte flips inside [start, end)."""
    out = []
    for name, data, start, end in region_seeds:
        out.append((name, data))
        for k in range(FLIPS):
            pos = rng.randrange(start, end)
            flipped = data[:pos] + bytes([data[pos] ^ rng.randrange(1, 256)]) + data[pos + 1 :]
            out.append((f"{name}/flip{k}@{pos}", flipped))
    return out


def _armor(data: bytes, label: str = "CERTIFICATE", width: int = 64, eol: str = "\n") -> str:
    body = base64.b64encode(data).decode("ascii")
    lines = [f"-----BEGIN {label}-----", *(body[i : i + width] for i in range(0, len(body), width))]
    return eol.join([*lines, f"-----END {label}-----"]) + eol


def container_documents() -> list[tuple[str, bytes, tuple[str, ...]]]:
    """(id, file bytes, formats): armored texts and their defects, each read under every listed format."""
    base, ca = certs.base_cert(), certs.ca_cert_accepted()
    fixtures = {f.name: f.data for f in certs.planted_fixtures()}
    bundle = [base, ca, *(fixtures[n] for n in ("trailing_bytes", "invalid_date", "wrong_oid", "empty_key_usage"))]
    key = enc.seq(enc.integer(0), enc.seq(enc.oid(certs.OID_RSA_ENC), enc.null()), enc.octet_string(b"\x01" * 32))
    single = _armor(base)
    lines = single.splitlines()
    openssl_text = (
        "Certificate:\n    Data:\n        Version: 3 (0x2)\n        Serial Number: 1 (0x1)\n"
        "        Signature Algorithm: sha256WithRSAEncryption\n        Issuer: CN=Example CA\n"
    )
    certifi_comments = (
        "\n# Issuer: CN=Example CA O=Example Org\n# Subject: CN=Example CA O=Example Org\n"
        '# Label: "Example CA"\n# Serial: 1\n'
    )
    texts = {
        "single": (single, ("auto", "pem", "der")),
        "single-crlf": (_armor(base, eol="\r\n"), ("auto", "pem")),
        "two-blocks": (_armor(base) + _armor(ca), ("auto", "pem")),
        "twelve-blocks": ("".join(_armor(bundle[k % len(bundle)]) for k in range(12)), ("auto", "pem")),
        "openssl-text": (openssl_text + single, ("auto", "pem", "der")),
        "certifi-comments": (certifi_comments + single, ("auto", "pem")),
        "key-before-certificate": (_armor(key, "PRIVATE KEY") + single, ("auto", "pem")),
        "key-after-certificate": (single + _armor(key, "PRIVATE KEY"), ("auto", "pem")),
        "no-end-line": ("\n".join(lines[:-1]) + "\n", ("auto", "pem")),
        "blank-line-inside": ("\n".join([*lines[:3], "", *lines[3:]]) + "\n", ("auto", "pem")),
        "line-of-76": (_armor(base, width=76), ("auto", "pem")),
        "begin-inside": ("\n".join([*lines[:3], lines[0], *lines[3:]]) + "\n", ("auto", "pem")),
        "bad-characters": (f"{lines[0]}\nnot*valid*base64\n{lines[-1]}\n", ("auto", "pem")),
        "wrong-padding": (f"{lines[0]}\nQUJD0\n{lines[-1]}\n", ("auto", "pem")),
        "non-canonical": (f"{lines[0]}\nQUJDRB==\n{lines[-1]}\n", ("auto", "pem")),
        "non-ascii": ("\n".join([lines[0], "\u00e9" + lines[1][1:], *lines[2:]]) + "\n", ("auto", "pem")),
        "blank-lines-between": (single + "\n \r\n" + _armor(ca) + "\n\n", ("auto", "pem")),
        "text-after-block": (single + "-- mail signature --\n", ("auto", "pem")),
        "empty-block": (f"{lines[0]}\n{lines[-1]}\n", ("auto", "pem")),
        "wrong-end-label": ("\n".join([*lines[:-1], "-----END PRIVATE KEY-----"]) + "\n", ("auto", "pem")),
        "bad-block-then-good": (f"{lines[0]}\nQUJDRB==\n{lines[-1]}\n" + _armor(ca), ("auto", "pem")),
        "final-cr": (single.removesuffix("\n") + "\r", ("auto", "pem")),
        "empty": ("", ("auto", "pem", "der")),
        "whitespace-only": ("\n \r\n\t\n", ("auto", "pem", "der")),
    }
    return [(f"container/{label}", text.encode("utf-8"), formats) for label, (text, formats) in texts.items()]


def _line(report) -> str:
    diagnostics = [
        [d.code.value, d.severity.value, d.byte_offset, d.grammar_path, d.message] for d in report.diagnostics
    ]
    return json.dumps([report.doc_id, report.outcome, diagnostics], separators=(",", ":"))


def render(reverse: bool = False) -> str:
    """The golden file's text for the current derlint; reverse lints the documents last line first."""
    der = LintOptions(fmt="der", timing=False)
    jobs = [partial(lint_bytes, data, doc_id, der) for doc_id, data in documents()]
    for doc_id, raw, formats in container_documents():
        for fmt in formats:
            options = LintOptions(fmt=fmt, timing=False)
            jobs += [partial(lint, doc, options) for doc in load_documents(raw, f"{doc_id}/{fmt}", fmt)]
    values = _with_region_flips(random.Random(VALUE_SEED), _replaced_field_seeds("value", _value_variants()))
    jobs += [partial(lint_bytes, data, doc_id, der) for doc_id, data in values]
    lines = [_line(job()) for job in (reversed(jobs) if reverse else jobs)]
    return "\n".join(reversed(lines) if reverse else lines) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(render())
    print(f"wrote {GOLDEN_PATH}")
