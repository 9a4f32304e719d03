"""What an accepted certificate's walk must not pay for.

A Code member read (Code.X) goes through EnumType.__getattr__ and costs
over ten times a module-level name, so the walk modules bind the codes
their success path passes to module-level names.  This test lints
certificates that record no diagnostic at all under an opcode trace and
fails on any Code member read executed in a frame of grammar.py,
names.py, extensions.py or matchers.py.  A second test lints the same certificates
under a call trace and fails if any of TlvNode's readings of its tag
(tag_class, constructed, tag_number, describe_tag) runs: an accepted
walk compares the identifier octet, tag, and nothing else.  A third
fails if names.parse_rdn, values.validate_time, or values.decode_oid for
a policy, key purpose or access method OID runs: the walk's in-place
checks pass those elements without their walk.  A fourth fails if a CPS
or userNotice policy qualifier id reaches WalkContext.oid: the walk
knows those two by their content octets.  A fifth fails if, once a
registry has named the OIDs, WalkContext.oid, decode_boolean or
Registry.lookup runs for an extension header or an AlgorithmIdentifier:
the walks of those read a named OID, a critical TRUE, no parameters, an
empty NULL and a named curve in place.
"""

import dis
import sys
import types
from dataclasses import replace
from pathlib import Path

import golden_corpus

import derlint.extensions
import derlint.grammar
import derlint.matchers
import derlint.names
from derlint.der import TlvNode
from derlint.diagnostics import Code
from derlint.extensions import WalkContext
from derlint.ingest import LintOptions, lint_bytes
from derlint.names import parse_rdn
from derlint.registry import Registry, load_registry
from derlint.values import decode_boolean, decode_oid, validate_time

from support import certs
from support import encoder as enc

WALK_MODULES = (derlint.grammar, derlint.names, derlint.extensions, derlint.matchers)


def _code_reads(module) -> dict[tuple, str]:
    """(file, first line, name, offset) -> "module:line" of each LOAD_ATTR that reads a member off the global Code."""
    sites = {}
    todo = [compile(Path(module.__file__).read_text(encoding="utf-8"), module.__file__, "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        previous = None
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_ATTR" and ins.argval in Code.__members__:
                if previous is not None and previous.opname == "LOAD_GLOBAL" and previous.argval == "Code":
                    key = (code.co_filename, code.co_firstlineno, code.co_name, ins.offset)
                    sites[key] = f"{module.__name__}:{ins.positions.lineno}"
            previous = ins
    return sites


def _ec_cert() -> bytes:
    point = b"\x04" + bytes(range(1, 65))
    spki = enc.seq(enc.seq(enc.oid("1.2.840.10045.2.1"), enc.oid("1.2.840.10045.3.1.7")), enc.bit_string(point))
    signature = enc.bit_string(enc.seq(enc.integer(0x1234), enc.integer(0x5678)))
    alg = certs.ecdsa_alg()
    return certs.build(replace(certs.CertSpec(), inner_alg=alg, spki=spki, outer_alg=alg, sig_value=signature))


def _accepted_without_diagnostics() -> list[tuple[str, bytes]]:
    """Every golden seed (before flips) and every support certificate that records no diagnostic."""
    docs = [(name, data) for name, data in golden_corpus.documents() if "/" not in name]
    docs += [("dh-key", certs.build(replace(certs.CertSpec(), spki=certs.dh_spki()))), ("ec-key", _ec_cert())]
    options = LintOptions(fmt="der", timing=False)
    return [(name, data) for name, data in docs if not lint_bytes(data, name, options).diagnostics]


def test_accepted_walk_reads_no_code_member():
    sites = {}
    for module in WALK_MODULES:
        sites.update(_code_reads(module))
    files = {module.__file__ for module in WALK_MODULES}
    docs = _accepted_without_diagnostics()
    options = LintOptions(fmt="der", timing=False)
    read, traced = set(), set()

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        frame.f_trace_opcodes = True
        traced.add(frame.f_code.co_filename)

        def on_event(frame, event, arg):
            if event == "opcode":
                code = frame.f_code
                site = sites.get((code.co_filename, code.co_firstlineno, code.co_name, frame.f_lasti))
                if site is not None:
                    read.add(site)
            return on_event

        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for name, data in docs:
            lint_bytes(data, name, options)
    finally:
        sys.settrace(previous)
    # The failure paths still read Code members, so the scan has sites to find.
    assert len(sites) > 20
    assert {"base-cert", "ca-cert-accepted", "pss-ok", "dh-key", "ec-key"} <= {name for name, _ in docs}
    assert len(docs) >= 30 and traced == files
    assert sorted(read) == []


def _tag_readings(docs) -> set[str]:
    """The names of TlvNode's tag readings that run while docs are linted."""
    readings = {
        TlvNode.tag_class.fget.__code__,
        TlvNode.constructed.fget.__code__,
        TlvNode.tag_number.fget.__code__,
        TlvNode.describe_tag.__code__,
    }
    options = LintOptions(fmt="der", timing=False)
    ran = set()

    def on_call(frame, event, arg):
        if frame.f_code in readings:
            ran.add(frame.f_code.co_name)

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for name, data in docs:
            lint_bytes(data, name, options)
    finally:
        sys.settrace(previous)
    return ran


def test_accepted_walk_reads_only_the_tag():
    # A wrong tag is described in its message, so the trace sees the readings when they run.
    wrong = certs.build(replace(certs.CertSpec(), outer_alg=enc.seq(enc.integer(1))))
    assert _tag_readings([("wrong-tag", wrong)]) >= {"describe_tag", "tag_class", "tag_number", "constructed"}
    docs = _accepted_without_diagnostics()
    assert len(docs) >= 30
    assert sorted(_tag_readings(docs)) == []


# The extension bodies that read an OID only to check it: policy identifiers, key purposes and access methods.
OID_CHECK_BODIES = {"_body_certificate_policies", "_body_extended_key_usage", "_info_access_body"}


def _element_walks(docs) -> set[str]:
    """Which of parse_rdn, validate_time and decode_oid (for an OID of OID_CHECK_BODIES) run while docs are linted."""
    options = LintOptions(fmt="der", timing=False)
    ran = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code is parse_rdn.__code__ or code is validate_time.__code__:
            ran.add(code.co_name)
        elif code is decode_oid.__code__:
            caller = frame.f_back
            if caller.f_code is WalkContext.oid.__code__:
                caller = caller.f_back
            if caller.f_code.co_name in OID_CHECK_BODIES:
                ran.add(f"decode_oid in {caller.f_code.co_name}")

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for name, data in docs:
            lint_bytes(data, name, options)
    finally:
        sys.settrace(previous)
    return ran


def test_accepted_walk_checks_names_times_and_oids_in_place():
    # An empty value, the 30th of February and a 32-bit arc in each OID-checking body: the trace sees each walk run.
    arc = enc.oid("1.2.4294967295")
    exts = (
        certs.aki(),
        certs.extension(certs.OID_EKU, enc.seq(arc)),
        certs.extension(certs.OID_AIA, enc.seq(enc.seq(arc, enc.ctx_prim(6, b"http://ocsp.example")))),
        certs.extension("2.5.29.32", enc.seq(enc.seq(arc))),
    )
    subject, validity = certs.name(value=enc.printable("")), certs.validity("200230000000Z")
    walked = certs.build(certs.CertSpec(subject=subject, validity=validity, exts=exts))
    assert _element_walks([("walked", walked)]) == {"parse_rdn", "validate_time"} | {
        f"decode_oid in {body}" for body in OID_CHECK_BODIES
    }
    docs = _accepted_without_diagnostics()
    assert len(docs) >= 30
    assert sorted(_element_walks(docs)) == []


def _qualifier_oid_reads(docs) -> list[str]:
    """The dotted qualifier ids that _parse_policy_qualifiers hands to WalkContext.oid while docs are linted."""
    options = LintOptions(fmt="der", timing=False)
    read = []

    def on_call(frame, event, arg):
        if frame.f_code is WalkContext.oid.__code__ and frame.f_back.f_code.co_name == "_parse_policy_qualifiers":
            read.append(".".join(map(str, decode_oid(frame.f_locals["node"]))))

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for name, data in docs:
            lint_bytes(data, name, options)
    finally:
        sys.settrace(previous)
    return read


def test_accepted_walk_names_cps_and_user_notice_by_their_octets():
    cps = enc.seq(enc.oid("1.3.6.1.5.5.7.2.1"), enc.ia5("https://cps.example/"))
    notice = enc.seq(enc.oid("1.3.6.1.5.5.7.2.2"), enc.seq(enc.utf8("Notice")))
    policy = enc.seq(enc.oid("2.23.140.1.2.1"), enc.seq(cps, notice))
    qualified = certs.build(certs.CertSpec(exts=(certs.aki(), certs.extension("2.5.29.32", enc.seq(policy)))))
    assert lint_bytes(qualified, "qualified", LintOptions(fmt="der", timing=False)).diagnostics == []
    # Any other qualifier id is named through WalkContext.oid for its message, so the trace sees that read.
    other = enc.seq(enc.oid("2.23.140.1.2.1"), enc.seq(cps, enc.seq(enc.oid("1.3.6.1.5.5.7.2.3"), enc.null())))
    unknown = certs.build(certs.CertSpec(exts=(certs.aki(), certs.extension("2.5.29.32", enc.seq(other)))))
    assert _qualifier_oid_reads([("unknown", unknown)]) == ["1.3.6.1.5.5.7.2.3"]
    assert _qualifier_oid_reads([("qualified", qualified), *_accepted_without_diagnostics()]) == []


# The walks of an extension header and of an AlgorithmIdentifier, and the calls an accepted one needs none of.
IN_PLACE_WALKS = (
    derlint.extensions._parse_extension_entry, derlint.grammar.parse_algorithm_identifier,
    derlint.grammar._check_parameters,
)
HEADER_READS = (WalkContext.oid, decode_boolean, Registry.lookup)


def _header_reads(docs, reg: Registry) -> tuple[set[str], set[str]]:
    """The IN_PLACE_WALKS that ran, and "<read> in <walk>" for each HEADER_READS call one of them made (directly or
    through WalkContext.decode), while docs are linted against reg with its memo emptied before each document."""
    options = LintOptions(fmt="der", timing=False, registry=reg)
    walks = {fn.__code__ for fn in IN_PLACE_WALKS}
    reads = {fn.__code__ for fn in HEADER_READS}
    ran, read = set(), set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in walks:
            ran.add(code.co_name)
        elif code in reads:
            caller = frame.f_back
            if caller.f_code is WalkContext.decode.__code__:
                caller = caller.f_back
            if caller.f_code in walks:
                read.add(f"{code.co_name} in {caller.f_code.co_name}")

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for name, data in docs:
            reg.silent_extensions.clear()
            lint_bytes(data, name, options)
    finally:
        sys.settrace(previous)
    return ran, read


def test_accepted_walk_reads_extension_headers_and_algorithms_in_place():
    docs = _accepted_without_diagnostics()
    names = {fn.__name__ for fn in IN_PLACE_WALKS}
    reg = load_registry()
    # A registry that has named no OID yet decodes each one, and a critical FALSE is decoded for its message: the
    # trace sees those reads.
    flag = certs.build(certs.CertSpec(exts=(certs.aki(), certs.basic_constraints(ca=True, critical=False))))
    ran, read = _header_reads([*docs, ("critical-false", flag)], reg)
    assert ran == names
    assert read >= {f"oid in {name}" for name in names} | {"decode_boolean in _parse_extension_entry"}
    ran, read = _header_reads(docs, reg)
    assert len(docs) >= 30 and ran == names
    assert sorted(read) == []
