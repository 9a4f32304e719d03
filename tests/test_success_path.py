"""What an accepted certificate's walk must not pay for.

A Code member read (Code.X) goes through EnumType.__getattr__ and costs
over ten times a module-level name, so the walk modules bind the codes
their success path passes to module-level names.  This test lints
certificates that record no diagnostic at all under an opcode trace and
fails on any Code member read executed in a frame of grammar.py,
names.py or extensions.py.
"""

import dis
import sys
import types
from dataclasses import replace
from pathlib import Path

import golden_corpus

import derlint.extensions
import derlint.grammar
import derlint.names
from derlint.diagnostics import Code
from derlint.ingest import LintOptions, lint_bytes

from support import certs
from support import encoder as enc

WALK_MODULES = (derlint.grammar, derlint.names, derlint.extensions)


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
