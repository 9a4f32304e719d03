"""Seeded inputs for every workload, each with its expected outcome.

Everything here is built with the independent encoder and the planted
catalog from ``tests/support``; nothing is derived from derlint's own
output.  Each document carries the verdict and, where construction fixes
it, the exact set of diagnostic codes derlint must report.  Each outcome
table carries the verdicts, missing parent chains and cross tabulation
that follow from how its labels were chosen.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

from support import certs
from support import encoder as enc

# The two advisory codes (README, "How it decides"); every other code
# rejects the certificate.
ADVISORY = frozenset({"NON_POSITIVE_SERIAL", "MISSING_KEY_IDENTIFIER_SELF_ISSUED"})

ACCEPTED = "accepted"
REJECTED = "rejected"

# Share of planted-catalog fixtures mixed into typical documents.
CATALOG_SHARE = 0.1
# Reject mix: the rest are random byte strings.  Random strings and
# truncated certificates fail on the first element header (the fast
# mode, 75%, holding p50); trailing-octet certificates are scanned to the
# end (the slow mode, 25%, holding p99).  p99 is then the top 4% of the
# slow mode, inside its costliest group (RSA key, RSA signature, ten
# extensions: about 7%) rather than on that group's edge.
TRUNCATED_SHARE = 0.15
TRAILING_SHARE = 0.25

OID_ECDSA_SHA256 = "1.2.840.10045.4.3.2"
OID_EC_PUBLIC_KEY = "1.2.840.10045.2.1"
CURVES = (("1.2.840.10045.3.1.7", 32), ("1.3.132.0.34", 48))
OID_SKI = "2.5.29.14"
OID_KU = "2.5.29.15"
OID_EKU = "2.5.29.37"
OID_BC = "2.5.29.19"
OID_SAN = "2.5.29.17"
OID_CRL_DP = "2.5.29.31"
OID_AIA = "1.3.6.1.5.5.7.1.1"
OID_POLICIES = "2.5.29.32"
OID_SCT_LIST = "1.3.6.1.4.1.11129.2.4.2"  # not in the registry: an unknown extension
OID_QT_CPS = "1.3.6.1.5.5.7.2.1"
OID_POLICY_DV = "2.23.140.1.2.1"
OID_OCSP = "1.3.6.1.5.5.7.48.1"
OID_CA_ISSUERS = "1.3.6.1.5.5.7.48.2"
OID_KP_SERVER = "1.3.6.1.5.5.7.3.1"
OID_KP_CLIENT = "1.3.6.1.5.5.7.3.2"
ATTR_C, ATTR_ST, ATTR_L, ATTR_O, ATTR_OU, ATTR_CN = (
    "2.5.4.6", "2.5.4.8", "2.5.4.7", "2.5.4.10", "2.5.4.11", "2.5.4.3",
)

# keyUsage bits a leaf asserts for its key family; none is forbidden for it.
_KEY_USAGE = {"rsa": {0, 2}, "ec": {0}, "dh": {4}}

_WORDS = (
    "alpha", "bravo", "cedar", "delta", "ember", "fjord", "garnet", "harbor", "indigo",
    "juniper", "kestrel", "lumen", "meadow", "nimbus", "orchid", "pylon", "quartz",
    "raven", "summit", "tundra", "umber", "vector", "willow", "xenon", "yonder", "zephyr",
)


@dataclass(frozen=True)
class Doc:
    doc_id: str
    data: bytes
    verdict: str
    codes: frozenset[str] | None  # None: only the verdict is fixed

    @property
    def rejecting_codes(self) -> frozenset[str]:
        return frozenset() if self.codes is None else self.codes - ADVISORY


# --- certificates -------------------------------------------------------------


def _word(rng: random.Random) -> str:
    return rng.choice(_WORDS)


def _host(rng: random.Random, labels: int = 3) -> str:
    parts = [f"{_word(rng)}{rng.randrange(100)}" for _ in range(labels - 1)]
    return ".".join(parts + ["example"])


def _rdn(oid: str, value: bytes) -> bytes:
    return enc.set_of(enc.seq(enc.oid(oid), value))


def _name(rng: random.Random, cn: str) -> bytes:
    """A multi-RDN name: C, optional ST and L, O, optional OU, CN."""
    rdns = [_rdn(ATTR_C, enc.printable(rng.choice(("US", "DE", "FR", "JP", "BR"))))]
    if rng.random() < 0.6:
        rdns.append(_rdn(ATTR_ST, enc.printable(_word(rng).title())))
    if rng.random() < 0.5:
        rdns.append(_rdn(ATTR_L, enc.utf8(_word(rng).title() + " City")))
    org = f"{_word(rng).title()} {_word(rng).title()} Inc"
    rdns.append(_rdn(ATTR_O, enc.utf8(org) if rng.random() < 0.5 else enc.printable(org)))
    if rng.random() < 0.4:
        rdns.append(_rdn(ATTR_OU, enc.printable("Unit " + str(rng.randrange(1, 99)))))
    rdns.append(_rdn(ATTR_CN, enc.printable(cn)))
    return enc.seq(*rdns)


def _validity(rng: random.Random) -> bytes:
    year = rng.randrange(2019, 2026)
    stamp = f"{rng.randrange(1, 13):02d}{rng.randrange(1, 29):02d}{rng.randrange(24):02d}{rng.randrange(60):02d}{rng.randrange(60):02d}Z"
    return enc.seq(enc.utctime(f"{year % 100:02d}{stamp}"), enc.utctime(f"{(year + 1) % 100:02d}{stamp}"))


def _spki(rng: random.Random, family: str) -> bytes:
    if family == "rsa":
        modulus = rng.getrandbits(2048) | (1 << 2047) | 1
        key = enc.seq(enc.integer(modulus), enc.integer(65537))
        return enc.seq(enc.seq(enc.oid(certs.OID_RSA_ENC), enc.null()), enc.bit_string(key))
    if family == "ec":
        curve, width = rng.choice(CURVES)
        point = b"\x04" + rng.randbytes(2 * width)
        return enc.seq(enc.seq(enc.oid(OID_EC_PUBLIC_KEY), enc.oid(curve)), enc.bit_string(point))
    params = enc.seq(
        enc.integer(rng.getrandbits(1024) | (1 << 1023) | 1),
        enc.integer(2),
        enc.integer(rng.getrandbits(160) | (1 << 159) | 1),
    )
    public = enc.integer(rng.getrandbits(1024) | (1 << 1023))
    return enc.seq(enc.seq(enc.oid(certs.OID_DH), params), enc.bit_string(public))


def _signature(rng: random.Random) -> tuple[bytes, bytes]:
    """(AlgorithmIdentifier, signatureValue) of the issuing CA."""
    if rng.random() < 0.6:
        return certs.rsa_alg(), enc.bit_string(rng.randbytes(256))
    r, s = (rng.getrandbits(256) | (1 << 200) for _ in range(2))
    return enc.seq(enc.oid(OID_ECDSA_SHA256)), enc.bit_string(enc.seq(enc.integer(r), enc.integer(s)))


def _uri(rng: random.Random, path: str) -> bytes:
    return enc.ctx_prim(6, f"http://{_host(rng, 2)}/{path}".encode("ascii"))


def _san(names: list[str]) -> bytes:
    return certs.extension(OID_SAN, enc.seq(*[enc.ctx_prim(2, n.encode("ascii")) for n in names]))


def _optional_extensions(rng: random.Random, family: str, host: str) -> dict[str, bytes]:
    sans = [host] + [_host(rng) for _ in range(rng.randrange(0, 4))]
    policies = enc.seq(
        enc.seq(enc.oid(OID_POLICY_DV)),
        enc.seq(
            enc.oid(f"1.3.6.1.4.1.{rng.randrange(1, 60000)}.1.1"),
            enc.seq(enc.seq(enc.oid(OID_QT_CPS), enc.ia5(f"http://{_host(rng, 2)}/cps"))),
        ),
    )
    return {
        "ski": certs.extension(OID_SKI, enc.octet_string(rng.randbytes(20))),
        "ku": certs.extension(OID_KU, enc.named_bit_string(_KEY_USAGE[family]), critical=True),
        "eku": certs.extension(OID_EKU, enc.seq(enc.oid(OID_KP_SERVER), enc.oid(OID_KP_CLIENT))),
        "bc": certs.extension(OID_BC, enc.seq(), critical=True),
        "san": _san(sans),
        "crl": certs.extension(OID_CRL_DP, enc.seq(enc.seq(enc.ctx(0, enc.ctx(0, _uri(rng, "leaf.crl")))))),
        "aia": certs.extension(
            OID_AIA,
            enc.seq(
                enc.seq(enc.oid(OID_OCSP), _uri(rng, "ocsp")),
                enc.seq(enc.oid(OID_CA_ISSUERS), _uri(rng, "ca.crt")),
            ),
        ),
        "policies": certs.extension(OID_POLICIES, policies),
        "unknown": certs.extension(OID_SCT_LIST, enc.octet_string(rng.randbytes(rng.randrange(100, 250)))),
    }


def _leaf(rng: random.Random, exts: tuple[bytes, ...], family: str, host: str) -> bytes:
    alg, sig = _signature(rng)
    return certs.build(
        certs.CertSpec(
            serial=enc.integer(rng.getrandbits(127) | 1),
            inner_alg=alg,
            issuer=_name(rng, f"{_word(rng).title()} Issuing CA {rng.randrange(1, 9)}"),
            validity=_validity(rng),
            subject=_name(rng, host),
            spki=_spki(rng, family),
            exts=exts,
            outer_alg=alg,
            sig_value=sig,
        )
    )


def _family(rng: random.Random) -> str:
    roll = rng.random()
    return "rsa" if roll < 0.6 else "ec" if roll < 0.9 else "dh"


def typical_cert(rng: random.Random) -> bytes:
    """A WebPKI-shaped leaf with an AKI plus 5 to 9 of the other extensions."""
    family = _family(rng)
    host = _host(rng)
    optional = _optional_extensions(rng, family, host)
    chosen = rng.sample(sorted(optional), rng.randrange(5, 10))
    exts = [certs.aki()] + [optional[k] for k in chosen]
    rng.shuffle(exts)
    return _leaf(rng, tuple(exts), family, host)


def large_san_cert(rng: random.Random, target: int) -> bytes:
    """A typical leaf whose SAN is padded with names until about target bytes."""
    family = _family(rng)
    host = _host(rng)
    optional = _optional_extensions(rng, family, host)
    names = [host]
    budget = target - 1400  # the rest of the certificate
    while budget > 0:
        name = ".".join(f"{_word(rng)}{rng.randrange(10 ** rng.randrange(1, 6))}" for _ in range(rng.randrange(2, 5))) + ".example"
        names.append(name)
        budget -= len(name) + 2
    optional["san"] = _san(names)
    exts = [certs.aki()] + [optional[k] for k in sorted(optional)]
    return _leaf(rng, tuple(exts), family, host)


# --- documents ----------------------------------------------------------------


def _fixture_doc(doc_id: str, fixture: certs.Fixture) -> Doc:
    codes = frozenset({fixture.code}) | fixture.implied
    return Doc(doc_id, fixture.data, ACCEPTED if fixture.accepted else REJECTED, codes)


# Mixes are dealt, not drawn: every seed gets the same number of each
# kind of document, in its own order, so that seeds differ in detail but
# not in the share of cheap and costly documents.


def _deal(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    kinds = [kind for kind, share in shares.items() for _ in range(round(n * share))]
    kinds += ["rest"] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def typical_docs(rng: random.Random, n: int, prefix: str = "typical") -> list[Doc]:
    fixtures = certs.planted_fixtures()
    docs = []
    for i, kind in enumerate(_deal(rng, n, {"catalog": CATALOG_SHARE})):
        doc_id = f"{prefix}-{i:05d}"
        if kind == "catalog":
            docs.append(_fixture_doc(doc_id, rng.choice(fixtures)))
        else:
            docs.append(Doc(doc_id, typical_cert(rng), ACCEPTED, frozenset()))
    return docs


def large_san_docs(rng: random.Random, n: int) -> list[Doc]:
    """Sizes uniform on 2-16 KiB, one per equal slice of that range, in seeded order."""
    targets = [2048 + (i + rng.random()) / n * (16384 - 2048) for i in range(n)]
    rng.shuffle(targets)
    return [Doc(f"large-san-{i:05d}", large_san_cert(rng, t), ACCEPTED, frozenset()) for i, t in enumerate(targets)]


def reject_docs(rng: random.Random, n: int) -> list[Doc]:
    docs = []
    for i, kind in enumerate(_deal(rng, n, {"truncated": TRUNCATED_SHARE, "trailing": TRAILING_SHARE})):
        doc_id = f"reject-{i:05d}"
        if kind == "truncated":
            cert = typical_cert(rng)
            docs.append(Doc(doc_id, cert[: rng.randrange(len(cert))], REJECTED, frozenset({"TRUNCATED_INPUT"})))
        elif kind == "trailing":
            cert = typical_cert(rng)
            docs.append(Doc(doc_id, cert + rng.randbytes(1), REJECTED, frozenset({"TRAILING_BYTES"})))
        else:
            # The fuzzing recipe of acceptance check 10.
            docs.append(Doc(doc_id, rng.randbytes(rng.randrange(0, 4097)), REJECTED, None))
    return docs


# --- a directory of DER and PEM files -----------------------------------------


def _pem(data: bytes) -> str:
    body = base64.b64encode(data).decode("ascii")
    lines = [body[i : i + 64] for i in range(0, len(body), 64)]
    return "\n".join(["-----BEGIN CERTIFICATE-----", *lines, "-----END CERTIFICATE-----", ""])


def write_batch_dir(rng: random.Random, docs: list[Doc], top: Path, name: str) -> tuple[list[Doc], int]:
    """Spread docs over DER, single-block PEM and multi-block PEM files.

    Files go under top/name in a few subdirectories.  Returns the docs
    renamed to the ids the CLI reports (path relative to top, plus #k for
    blocks of a multi-block file) and the total bytes written.
    """
    out: list[Doc] = []
    written = 0
    i = 0
    k = 0
    while i < len(docs):
        sub = Path(name) / f"d{rng.randrange(8)}"
        (top / sub).mkdir(parents=True, exist_ok=True)
        roll = rng.random()
        if roll < 0.4:
            rel = sub / f"{k:05d}.der"
            payload = docs[i].data
            group = [(str(rel), docs[i])]
        else:
            rel = sub / f"{k:05d}.pem"
            count = 1 if roll < 0.7 else min(rng.randrange(2, 5), len(docs) - i)
            chunk = docs[i : i + count]
            payload = "".join(_pem(d.data) for d in chunk).encode("ascii")
            ids = [str(rel)] if count == 1 else [f"{rel}#{j}" for j in range(1, count + 1)]
            group = list(zip(ids, chunk))
        (top / rel).write_bytes(payload)
        written += len(payload)
        out.extend(Doc(doc_id, d.data, d.verdict, d.codes) for doc_id, d in group)
        i += len(group)
        k += 1
    return out, written


# --- chain outcome tables -------------------------------------------------------

VALIDATORS = ("val-a", "val-b", "val-c")
_ERRORS = (
    "certificate has expired",
    "unable to get local issuer certificate",
    "unsupported critical extension",
    "invalid CA certificate",
    "path length constraint exceeded",
)
_CAS = 16


@dataclass
class Outcomes:
    """An outcome table and what derlint's differential analysis must make of it."""

    csv_text: str
    records: int
    # (validator, chain) -> (verdict, rule, leaf label, parent label)
    verdicts: dict[tuple[str, str], tuple[str, str, str, str | None]] = field(default_factory=dict)
    # (validator, chain) -> parent chain id
    missing: dict[tuple[str, str], str] = field(default_factory=dict)
    disagreements: dict[str, int] = field(default_factory=dict)
    by_code: dict[str, set[str]] = field(default_factory=dict)
    agreements: int = 0
    accepted_here_rejected_there: int = 0
    unjoined: set[tuple[str, str]] = field(default_factory=set)


def outcome_table(rng: random.Random, docs: list[Doc], leaves: int | None = None) -> Outcomes:
    """Label leaf chains for the documents under every validator.

    There are `leaves` leaf chains (default: one per document); when they
    outnumber the documents, the documents repeat under other CAs.  A CA
    chain is labeled valid or with an error; a leaf chain is labeled
    valid, with its CA's error (shadowed), or with an error of its own.
    One CA chain per validator is left unmeasured, and a few leaves have
    no document, so the missing and unjoined paths are exercised too.
    """
    n = len(docs)
    leaves = n if leaves is None else leaves
    if leaves > n * _CAS:
        raise ValueError(f"{leaves} leaf chains need more than {n} documents")
    rows: list[tuple[str, str, str, str]] = []
    out = Outcomes(csv_text="", records=0)
    rejecting = {d.doc_id: d.rejecting_codes for d in docs}
    home = [rng.randrange(_CAS) for _ in range(n)]
    chains = [(docs[k % n].doc_id, f"ca-{(home[k % n] + k // n) % _CAS}") for k in range(leaves)]
    chains += [(f"ghost-{j}", f"ca-{rng.randrange(_CAS)}") for j in range(max(1, leaves // 200))]
    for validator in VALIDATORS:
        unmeasured = f"ca-{rng.randrange(_CAS)}"
        ca_labels: dict[str, str] = {}
        for c in range(_CAS):
            ca = f"ca-{c}"
            label = "valid" if rng.random() < 0.6 else rng.choice(_ERRORS)
            if ca == unmeasured:
                continue
            ca_labels[ca] = label
            rows.append((ca, ca, validator, label))
            out.verdicts[(validator, ca)] = ("valid", "leaf-valid", label, None) if label == "valid" else (
                "invalid", "distinct-error", label, None)
        for leaf, ca in chains:
            chain = f"{ca}>{leaf}"
            parent = ca_labels.get(ca)
            roll = rng.random()
            if roll < 0.5:
                label = "valid"
            elif parent not in (None, "valid") and roll < 0.75:
                label = parent
            else:
                label = rng.choice([e for e in _ERRORS if e != parent])
            rows.append((chain, leaf, validator, label))
            if ca == unmeasured and label != "valid":
                out.missing[(validator, chain)] = ca
                continue
            if label == "valid":
                verdict = ("valid", "leaf-valid", label, parent)
            elif label == parent:
                verdict = ("valid", "ca-shadowed", label, parent)
            else:
                verdict = ("invalid", "distinct-error", label, parent)
            out.verdicts[(validator, chain)] = verdict
            _tabulate(out, validator, chain, leaf, verdict[0], rejecting)
    rng.shuffle(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("chain_id", "leaf_cert_id", "validator_id", "outcome_label"))
    writer.writerows(rows)
    out.csv_text = buf.getvalue()
    out.records = len(rows)
    # CA chains name themselves as their leaf: they join like any leaf.
    for (validator, chain), verdict in out.verdicts.items():
        if ">" not in chain:
            _tabulate(out, validator, chain, chain, verdict[0], rejecting)
    return out


def _tabulate(out: Outcomes, validator: str, chain: str, leaf: str, verdict: str, rejecting: dict) -> None:
    ours = rejecting.get(leaf)
    if ours is None:
        out.unjoined.add((validator, chain))
        return
    they_accept = verdict == "valid"
    if they_accept and ours:
        out.disagreements[validator] = out.disagreements.get(validator, 0) + 1
        out.by_code.setdefault(validator, set()).update(ours)
    elif bool(ours) != they_accept:
        out.agreements += 1
    else:
        out.accepted_here_rejected_there += 1


# --- digest ---------------------------------------------------------------------


def digest(docs: list[Doc], *tables: Outcomes) -> str:
    """sha256 over every document, its expectation and every outcome table."""
    h = hashlib.sha256()
    for d in docs:
        codes = "-" if d.codes is None else ",".join(sorted(d.codes))
        h.update(f"{d.doc_id}\0{d.verdict}\0{codes}\0{len(d.data)}\0".encode())
        h.update(d.data)
    for table in tables:
        h.update(table.csv_text.encode())
    return h.hexdigest()
