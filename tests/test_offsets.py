"""Absolute byte offsets at each place the walk re-enters a carried payload.

Extension bodies, public key bits and signature values are DER inside
an OCTET STRING or BIT STRING, and a Name sits inside a directoryName.
A diagnostic raised inside any of them must point at the offending
octet of the whole document, not of the payload.
"""

from dataclasses import replace

from derlint.diagnostics import Code
from derlint.grammar import parse_certificate

from support import certs
from support import encoder as enc

BASE = certs.CertSpec()


def only(data: bytes, code: Code):
    hits = [d for d in parse_certificate(data).diagnostics if d.code is code]
    assert len(hits) == 1, hits
    return hits[0]


def test_extension_body_offset():
    bad_bool = enc.tlv(1, b"\x01")
    ext = certs.extension(certs.OID_BC, enc.seq(bad_bool), critical=True)
    data = certs.build(replace(BASE, exts=(certs.aki(), certs.ski(), ext)))
    d = only(data, Code.NON_CANONICAL_BOOLEAN)
    assert d.byte_offset == data.index(ext) + len(ext) - 1
    assert data[d.byte_offset] == 0x01
    assert d.grammar_path == "tbsCertificate.extensions[2].extnValue.cA"


def test_rsa_key_bits_offset():
    padded_exponent = enc.tlv(2, b"\x00\x01\x00\x01")
    key = enc.seq(enc.integer(int.from_bytes(b"\xc3" * 64, "big")), padded_exponent)
    spki = enc.seq(enc.seq(enc.oid(certs.OID_RSA_ENC), enc.null()), enc.bit_string(key))
    data = certs.build(replace(BASE, spki=spki))
    d = only(data, Code.NON_MINIMAL_INTEGER)
    assert d.byte_offset == data.index(padded_exponent) + 2
    assert data[d.byte_offset] == 0x00
    assert d.grammar_path == "tbsCertificate.subjectPublicKeyInfo.subjectPublicKey"


def test_ecdsa_signature_value_offset():
    s_value = enc.octet_string(b"\x09")
    sig = enc.bit_string(enc.seq(enc.integer(7), s_value))
    data = certs.build(replace(BASE, inner_alg=certs.ecdsa_alg(), outer_alg=certs.ecdsa_alg(), sig_value=sig))
    d = only(data, Code.MALFORMED_SIGNATURE_STRUCTURE)
    assert d.byte_offset == len(data) - len(s_value)
    assert data[d.byte_offset] == 0x04
    assert d.grammar_path == "signatureValue"


def test_directory_name_in_san_offset():
    dn = certs.name(value=enc.printable("user@host"))
    san = certs.extension(certs.OID_SAN, enc.seq(enc.ctx_prim(2, b"example.com"), enc.ctx(4, dn)))
    data = certs.build(replace(BASE, exts=(certs.aki(), san)))
    d = only(data, Code.CHAR_SET_VIOLATION)
    assert d.byte_offset == data.index(b"user@host") + 4
    assert data[d.byte_offset] == ord("@")
    assert d.grammar_path == "tbsCertificate.extensions[1].extnValue.name[1].rdn[0].attr[0]"
