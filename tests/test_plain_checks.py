"""The walk's in-place checks stand in for the walk only where it is silent.

names._plain_rdn, values.plain_time and values.plain_oid let the walk
skip an RDN, a validity time or an OID it would record nothing on.  Each
must pass only where the walk on that element records nothing.  That is
checked for every element of each kind in the golden corpus and the
planted catalog, extension payloads included, and for seeded one-octet
mutations of each.  Each check must also pass at least 90% of the
elements it sees in the accepted golden documents, so that the first
property cannot hold by the check returning False.
"""

import random

import golden_corpus
import pytest

import derlint.extensions
import derlint.grammar
import derlint.names
from derlint.der import TlvNode, parse_tlv_tree
from derlint.diagnostics import RecognitionError
from derlint.extensions import WalkContext
from derlint.ingest import LintOptions, lint_bytes
from derlint.names import _plain_rdn, parse_rdn
from derlint.registry import default_registry
from derlint.values import TAG_GENERALIZED_TIME, TAG_OID, TAG_SET, TAG_UTC_TIME, decode_oid, plain_oid
from derlint.values import plain_time, validate_time

from support import certs
from support import encoder as enc

REG = default_registry()
OPTIONS = LintOptions(fmt="der", timing=False)
MUTATIONS = 24
# Octets a mutation draws from half the time: digits, Z and the edges of each alphabet and of the base-128 form.
EDGES = b"0123456789Z\x00\x01\x1f ~\x7f\x80\x81\xc3\xff"


def _documents() -> list[bytes]:
    return [data for _, data in golden_corpus.documents()] + [f.data for f in certs.planted_fixtures()]


def _nodes(data: bytes):
    """Every node of data's tree, and of each OCTET STRING or BIT STRING payload that parses as one element."""
    try:
        todo = [parse_tlv_tree(data)]
    except RecognitionError:
        return
    while todo:
        node = todo.pop()
        yield node
        todo += node.children
        skip = {0x04: 0, 0x03: 1}.get(node.tag)
        if skip is not None and node.content_length > skip:
            try:
                end = node.content_offset + node.content_length
                todo.append(parse_tlv_tree(node.buffer, node.content_offset + skip, end))
            except RecognitionError:
                pass


def _walk_rdn(node: TlvNode) -> bool:
    ctx = WalkContext(REG)
    parse_rdn(node, ctx, "rdn")
    return not ctx.diags


def _walk_time(node: TlvNode) -> bool:
    ctx = WalkContext(REG)
    return node.tag in (TAG_UTC_TIME, TAG_GENERALIZED_TIME) and ctx.decode(validate_time, node, "t") is not None


def _walk_oid(node: TlvNode) -> bool:
    ctx = WalkContext(REG)
    return node.tag == TAG_OID and ctx.oid(node, "oid") is not None and not ctx.diags


# kind -> (whether an element is collected, the in-place check, the walk it stands in for)
KINDS = {
    "rdn": (lambda node: node.tag == TAG_SET, lambda node: _plain_rdn(node, REG), _walk_rdn),
    "time": (lambda node: node.tag in (TAG_UTC_TIME, TAG_GENERALIZED_TIME), plain_time, _walk_time),
    "oid": (lambda node: node.tag == TAG_OID, plain_oid, _walk_oid),
}


@pytest.fixture(scope="module")
def elements() -> dict[str, set[bytes]]:
    """The encodings of every element of each kind, after linting every document so the registry's by_der is warm."""
    found = {kind: set() for kind in KINDS}
    for data in _documents():
        lint_bytes(data, "doc", OPTIONS)
        for node in _nodes(data):
            for kind, (collected, _, _) in KINDS.items():
                if collected(node):
                    found[kind].add(node.raw)
    return found


def _mutations(raw: bytes, rng: random.Random, passed: bool):
    """MUTATIONS seeded one-octet changes; for an element the check passes, also each edge octet at each position."""
    changes = []
    for _ in range(MUTATIONS):
        pos = rng.randrange(len(raw))
        changes.append((pos, rng.choice(EDGES) if rng.random() < 0.5 else rng.randrange(256)))
    if passed:
        changes += [(pos, octet) for pos in range(len(raw)) for octet in EDGES]
    for pos, octet in changes:
        yield raw[:pos] + bytes([octet]) + raw[pos + 1 :]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_check_passes_only_where_the_walk_is_silent(kind, elements):
    _, check, walk = KINDS[kind]
    rng = random.Random(0x91A1)
    passed = mutated_passed = 0
    wrong = []
    for raw in sorted(elements[kind]):
        node = parse_tlv_tree(raw)
        passes = check(node)
        if passes:
            passed += 1
            if walk(node) != passes:
                wrong.append(raw.hex())
        for mutated in _mutations(raw, rng, bool(passes)):
            try:
                node = parse_tlv_tree(mutated)
            except RecognitionError:
                continue
            passes = check(node)
            if passes:
                mutated_passed += 1
                if walk(node) != passes:
                    wrong.append(mutated.hex())
    assert len(elements[kind]) >= 40 and passed >= 5 and mutated_passed >= 100
    assert wrong == []


def test_time_check_is_validate_time_on_every_date():
    # Each month and day of each two-digit year and of years that test the leap rule, at the edges of the clock.
    clocks = ("000000", "235959", "240000", "006000", "000060")
    stamps = [f"{yy:02d}" for yy in range(100)] + ["1900", "1950", "2000", "2024", "2100", "2400", "9999"]
    for stamp in stamps:
        tag = TAG_UTC_TIME if len(stamp) == 2 else TAG_GENERALIZED_TIME
        for month in range(14):
            for day in range(33):
                for clock in clocks:
                    content = f"{stamp}{month:02d}{day:02d}{clock}Z".encode()
                    node = parse_tlv_tree(bytes([tag, len(content)]) + content)
                    assert plain_time(node) == _walk_time(node), content


def _decodes(node: TlvNode) -> bool:
    try:
        decode_oid(node)
    except RecognitionError:
        return False
    return True


def test_oid_check_implies_decode_oid_accepts():
    # Every 1- and 2-octet content, then seeded 3- to 8-octet ones, half their octets drawn from EDGES.
    rng = random.Random(0x01D5)
    contents = [bytes([a]) for a in range(256)] + [bytes([a, b]) for a in range(256) for b in range(256)]
    for _ in range(20_000):
        size = rng.randrange(3, 9)
        contents.append(bytes(rng.choice(EDGES) if rng.random() < 0.5 else rng.randrange(256) for _ in range(size)))
    nodes = [parse_tlv_tree(enc.raw_oid(content)) for content in contents]
    passed = [node for node in nodes if plain_oid(node)]
    assert len(passed) > 20_000
    assert [node.content.hex() for node in passed if not _decodes(node)] == []


def test_oid_check_passes_every_minimal_oid_of_short_sub_identifiers():
    # Sub-identifiers of 1 to 4 octets (below 2**28), the first folding two arcs, and the largest of each.
    rng = random.Random(0x01D6)
    widths = (7, 14, 21, 28)
    oids = [[2, (1 << 28) - 81], [1, 39, (1 << 28) - 1]]
    for _ in range(5_000):
        first = rng.randrange(3)
        second = rng.randrange(40) if first < 2 else rng.randrange((1 << rng.choice(widths)) - 80)
        oids.append([first, second] + [rng.randrange(1 << rng.choice(widths)) for _ in range(rng.randrange(7))])
    for arcs in oids:
        node = parse_tlv_tree(enc.raw_oid(enc.encode_oid_arcs(arcs)))
        assert plain_oid(node), arcs
        assert decode_oid(node) == tuple(arcs)


def test_checks_pass_most_elements_of_accepted_documents(monkeypatch, elements):
    accepted = [data for data in _documents() if lint_bytes(data, "doc", OPTIONS).outcome == "accepted"]
    results = {"rdn": [], "time": [], "oid": []}

    def recorded(kind, check):
        def wrapper(*args):
            found = check(*args)
            results[kind].append(bool(found))
            return found

        return wrapper

    rdn = recorded("rdn", _plain_rdn)
    monkeypatch.setattr(derlint.names, "_plain_rdn", rdn)
    monkeypatch.setattr(derlint.extensions, "_plain_rdn", rdn)
    monkeypatch.setattr(derlint.grammar, "plain_time", recorded("time", plain_time))
    monkeypatch.setattr(derlint.extensions, "plain_oid", recorded("oid", plain_oid))
    # Only the remembered extension entries are forgotten before each walk, so every entry reaches the checks.
    for data in accepted:
        REG.silent_extensions.clear()
        lint_bytes(data, "doc", OPTIONS)
    assert len(accepted) >= 100
    for kind, seen in results.items():
        assert len(seen) >= 20, kind
        assert sum(seen) >= 0.9 * len(seen), (kind, sum(seen), len(seen))
