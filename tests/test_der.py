"""Structural layer: length transition function, TLV scanner, TLV trees."""

import random
import tracemalloc

import pytest

from derlint.der import (
    CONTENT_MAX,
    L1,
    L2,
    L3,
    L4,
    MAX_DEPTH,
    Q0,
    TlvNode,
    _read_identifier,
    _read_length,
    delta_length,
    is_accepting,
    parse_tlv_tree,
)
from derlint.diagnostics import Code, RecognitionError

from support import encoder as enc


def run_length(octets: bytes) -> int:
    state = Q0
    for b in octets:
        state = delta_length(state, b)
    return state


class TestDeltaLength:
    def test_short_form_truth_table(self):
        for b in range(0x80):
            state = delta_length(Q0, b)
            assert state == b
            assert 0 <= state <= CONTENT_MAX

    def test_only_zero_accepts(self):
        assert is_accepting(0)
        for s in (1, 5, 127, CONTENT_MAX):
            assert not is_accepting(s)
        assert not is_accepting(Q0)
        assert not is_accepting(L1)

    def test_indefinite_form_forbidden(self):
        with pytest.raises(RecognitionError) as exc:
            delta_length(Q0, 0x80)
        assert exc.value.code is Code.LENGTH_BYTE_FORBIDDEN

    def test_prefix_dispatch(self):
        assert delta_length(Q0, 0x81) == L1
        assert delta_length(Q0, 0x81) == 1 << 32
        assert delta_length(Q0, 0x82) == L2
        assert delta_length(Q0, 0x83) == L3
        assert delta_length(Q0, 0x84) == L4

    def test_overlong_prefixes_rejected(self):
        for b in range(0x85, 0x100):
            with pytest.raises(RecognitionError) as exc:
                delta_length(Q0, b)
            assert exc.value.code is Code.LENGTH_TOO_LARGE

    def test_one_octet_long_form(self):
        for v in range(0x80, 0x100):
            assert delta_length(L1, v) == v
        for v in range(0x80):
            with pytest.raises(RecognitionError) as exc:
                delta_length(L1, v)
            assert exc.value.code is Code.NON_MINIMAL_LENGTH

    def test_two_octet_path(self):
        with pytest.raises(RecognitionError) as exc:
            delta_length(L2, 0)
        assert exc.value.code is Code.NON_MINIMAL_LENGTH
        for b1 in range(1, 256):
            for b2 in (0, 7, 255):
                assert run_length(bytes([0x82, b1, b2])) == (b1 << 8) + b2

    def test_three_octet_path(self):
        with pytest.raises(RecognitionError):
            delta_length(L3, 0)
        for value in (0x010000, 0x012345, 0xFFFFFF, 0xABCDEF):
            octets = value.to_bytes(3, "big")
            assert run_length(b"\x83" + octets) == value

    def test_four_octet_path(self):
        with pytest.raises(RecognitionError):
            delta_length(L4, 0)
        for value in (0x01000000, 0x01020304, 0xDEADBEEF, CONTENT_MAX):
            octets = value.to_bytes(4, "big")
            assert run_length(b"\x84" + octets) == value

    def test_matches_minimal_encoder_for_all_16_bit_lengths(self):
        for n in range(0x10000):
            assert run_length(enc.encode_length(n)) == n

    def test_matches_minimal_encoder_for_sampled_large_lengths(self):
        rng = random.Random(0x0515)
        samples = [rng.randrange(0x10000, CONTENT_MAX + 1) for _ in range(2000)]
        samples += [0x10000, CONTENT_MAX, CONTENT_MAX - 1]
        for n in samples:
            assert run_length(enc.encode_length(n)) == n

    def test_non_minimal_two_octet_rejected(self):
        # Values below 256 must not use the two-octet form.
        for v in (0, 1, 127, 128, 255):
            with pytest.raises(RecognitionError) as exc:
                run_length(bytes([0x82, 0x00, v]))
            assert exc.value.code is Code.NON_MINIMAL_LENGTH

    def test_intermediate_states_disjoint_from_counting(self):
        mid = delta_length(Q0, 0x84)
        for b in (0x01, 0x02, 0x03):
            mid = delta_length(mid, b)
            assert not 0 <= mid <= CONTENT_MAX
        assert 0 <= delta_length(mid, 0x04) <= CONTENT_MAX

    def test_rejects_bytes_out_of_range(self):
        with pytest.raises(ValueError):
            delta_length(Q0, 256)
        with pytest.raises(ValueError):
            delta_length(Q0, -1)

    def test_rejects_non_length_state(self):
        with pytest.raises(ValueError):
            delta_length(5, 0x01)


def first_error(data: bytes) -> RecognitionError:
    with pytest.raises(RecognitionError) as exc:
        parse_tlv_tree(data)
    return exc.value


class TestParseTlvTree:
    def test_primitive_node(self):
        node = parse_tlv_tree(b"\x04\x03abc")
        assert node.tag == 0x04
        assert node.content == b"abc"
        assert node.header_offset == 0
        assert node.content_offset == 2
        assert node.content_offset + node.content_length == 5

    def test_nested_offsets(self):
        data = enc.seq(enc.integer(5), enc.seq(enc.null()))
        node = parse_tlv_tree(data)
        assert node.tag == 0x30
        assert len(node.children) == 2
        inner = node.children[1]
        assert inner.children[0].tag == 0x05
        assert node.raw == data
        assert inner.children[0].raw == b"\x05\x00"

    def test_children_tile_content(self):
        data = enc.seq(enc.integer(1), enc.octet_string(b"xy"), enc.boolean(True))
        node = parse_tlv_tree(data)
        pos = node.content_offset
        for child in node.children:
            assert child.header_offset == pos
            pos = child.content_offset + child.content_length
        assert pos == node.content_offset + node.content_length

    def test_high_tag_number(self):
        data = enc.tlv(31, b"z")
        node = parse_tlv_tree(data)
        assert node.tag_number == 31
        assert node.tag == 31 << 8 | 0x1F
        data = enc.tlv(201, b"z", tag_class="private")
        node = parse_tlv_tree(data)
        assert node.tag_class == "private"
        assert node.tag_number == 201
        assert node.tag == 201 << 8 | 0xDF
        data = enc.tlv(2**32 - 1, enc.null(), constructed=True, tag_class="context")
        node = parse_tlv_tree(data)
        assert (node.tag_class, node.constructed, node.tag_number) == ("context", True, 2**32 - 1)
        assert node.tag == (2**32 - 1) << 8 | 0xBF
        assert node.children[0].tag == 0x05

    def test_high_tag_low_value_rejected(self):
        # Tag 7 must use the low form, not the high-tag escape.
        err = first_error(b"\x1f\x07\x00")
        assert err.code is Code.LEXING_ERROR

    def test_high_tag_leading_pad_rejected(self):
        err = first_error(b"\x1f\x80\x01\x00")
        assert err.code is Code.LEXING_ERROR

    def test_empty_input(self):
        err = first_error(b"")
        assert err.code is Code.TRUNCATED_INPUT

    def test_trailing_bytes(self):
        err = first_error(b"\x05\x00\x00")
        assert err.code is Code.TRAILING_BYTES
        assert err.offset == 2

    def test_truncated_content(self):
        err = first_error(b"\x04\x05ab")
        assert err.code is Code.TRUNCATED_INPUT

    def test_child_overflow_inside_parent(self):
        # The inner SEQUENCE claims 2 content octets but its child's header
        # declares 5; input continues past the parent, so this is a child
        # overflow rather than truncation.
        # The same holds under a root that leaves an octet over: the error
        # inside it comes before TRAILING_BYTES.
        data = enc.seq(b"\x30\x02\x04\x05", enc.null())
        for blob in (data, data + b"\x00"):
            err = first_error(blob)
            assert (err.code, err.offset, err.message) == (
                Code.CHILD_OVERFLOW, 4, "declared length 5 overruns parent extent"
            )

    def test_overrun_at_input_end_reads_as_truncation(self):
        err = first_error(enc.seq(b"\x04\x05ab"))
        assert err.code is Code.TRUNCATED_INPUT

    def test_length_errors_surface_with_offset(self):
        err = first_error(b"\x04\x80")
        assert err.code is Code.LENGTH_BYTE_FORBIDDEN
        assert err.offset == 1
        err = first_error(b"\x04\x81\x05" + bytes(5))
        assert err.code is Code.NON_MINIMAL_LENGTH
        # Inside a root, with and without an octet left over after it.
        cases = [
            (b"\x30\x02\x04\x80", Code.LENGTH_BYTE_FORBIDDEN, 3, "length octet 0x80"),
            (enc.seq(b"\x04\x81\x05" + bytes(5)), Code.NON_MINIMAL_LENGTH, 4, "long form for length 5"),
        ]
        for data, code, offset, message in cases:
            for blob in (data, data + b"\x00"):
                err = first_error(blob)
                assert (err.code, err.offset, err.message) == (code, offset, message)

    def test_primitive_must_not_be_constructed_inside(self):
        # A constructed OCTET STRING parses as a tree (tag semantics are
        # the grammar layer's concern), so the structural layer accepts it.
        data = enc.tlv(4, enc.null(), constructed=True)
        node = parse_tlv_tree(data)
        assert node.constructed
        assert node.tag == 0x24
        assert node.children[0].tag == 0x05

    def test_depth_cap_enforced(self):
        blob = enc.null()
        for _ in range(MAX_DEPTH + 6):
            blob = enc.seq(blob)
        err = first_error(blob)
        assert err.code is Code.NESTING_TOO_DEEP

    def test_depth_just_under_cap_accepted(self):
        blob = enc.null()
        for _ in range(MAX_DEPTH - 1):
            blob = enc.seq(blob)
        assert parse_tlv_tree(blob) is not None

    def test_depth_cap_offset(self):
        # Element MAX_DEPTH + 1, counting the root as 1, is the first one
        # past the cap; the error points at its header.
        levels = [enc.null()]
        for _ in range(MAX_DEPTH + 6):
            levels.append(enc.seq(levels[-1]))
        # An octet left over after the root changes nothing: depth is still
        # counted, and the cap is met before the scan reaches the root's end.
        blob = levels[-1]
        for data in (blob, blob + b"\x00"):
            err = first_error(data)
            assert (err.code, err.offset, err.message) == (
                Code.NESTING_TOO_DEEP, len(blob) - len(levels[-1 - MAX_DEPTH]), Code.NESTING_TOO_DEEP.label
            )

    def test_deep_nesting_under_raised_cap(self):
        depth = 5_000
        blob = enc.null()
        for _ in range(depth):
            blob = enc.seq(blob)
        node = parse_tlv_tree(blob, max_depth=10_000)
        levels = 0
        while node.children:
            (node,) = node.children
            levels += 1
        assert levels == depth
        assert node.tag == 0x05

    def test_root_that_leaves_octets_over_builds_no_tree(self):
        # A flat SEQUENCE of 100,000 NULLs keeps a node per NULL; with one
        # octet after it the scan ends in TRAILING_BYTES and keeps none.
        data = enc.seq(*[enc.null()] * 100_000)
        peaks = []
        for blob in (data, data + b"\x00"):
            tracemalloc.start()
            try:
                try:
                    tree = parse_tlv_tree(blob)
                except RecognitionError as exc:
                    tree = exc
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert tree.code is Code.TRAILING_BYTES and tree.offset == len(data)
        assert peaks[1] < peaks[0] / 20, peaks

    def test_shared_end_closes_every_level(self):
        # The innermost two levels end on the same octet; the next element
        # is a sibling of the outer one, not a child of either.
        data = enc.seq(enc.seq(enc.seq(enc.null())), enc.integer(7))
        node = parse_tlv_tree(data)
        assert len(node.children) == 2
        assert node.children[1].tag == 0x02
        assert node.children[0].children[0].children[0].tag == 0x05

    def test_child_exact_fit_allowed(self):
        data = enc.seq(enc.octet_string(b"xyz"))
        node = parse_tlv_tree(data)
        (child,) = node.children
        assert child.content_offset + child.content_length == node.content_offset + node.content_length == len(data)

    def test_zero_length_constructed_child(self):
        data = enc.seq(enc.seq(), enc.null())
        node = parse_tlv_tree(data)
        assert [c.tag_number for c in node.children] == [16, 5]
        assert node.children[0].children == []

    def test_child_overrunning_parent_rejected_at_its_header(self):
        data = enc.seq(b"\x30\x03\x04\x02ab", enc.null())
        err = first_error(data)
        assert err.code is Code.CHILD_OVERFLOW
        assert err.offset == 4
        assert err.message == "declared length 2 overruns parent extent"

    def test_round_trip_random_trees(self):
        rng = random.Random(0xD1CE)
        for _ in range(300):
            spec = enc.random_tree(rng)
            data, _ = enc.encode_spec(spec)
            node = parse_tlv_tree(data)
            assert node.raw == data
            assert _matches(spec, node, data)


def _matches(spec: enc.TreeSpec, node: TlvNode, data: bytes) -> bool:
    """True when node and every node under it carry spec's tag, octets and shape, over the buffer data.

    Each of the scanner's slot stores is read here, so a dropped or swapped one fails the match.
    """
    identifier = enc.encode_tag(spec.tag_class, spec.constructed, spec.number)
    if node.tag != (spec.number << 8 if len(identifier) > 1 else 0) | identifier[0]:
        return False
    if (spec.tag_class, spec.number, spec.constructed) != (
        node.tag_class,
        node.tag_number,
        node.constructed,
    ):
        return False
    if node.raw != enc.encode_spec(spec)[0] or node.buffer is not data:
        return False
    if spec.constructed:
        if len(spec.children) != len(node.children):
            return False
        return all(_matches(s, n, data) for s, n in zip(spec.children, node.children))
    return spec.content == node.content and node.children == ()


def header_spec(data, pos: int, limit: int, at_input_end: bool):
    """What the octet-at-a-time readers make of the header at pos."""
    try:
        tag, pos = _read_identifier(data, pos, limit, at_input_end)
        length, pos = _read_length(data, pos, limit, at_input_end)
    except RecognitionError as err:
        return (err.code, err.offset, err.message)
    return (tag, length, pos)


def header_scanned(data, pos: int, end: int):
    """What parse_tlv_tree makes of the header at pos, as header_spec says it."""
    try:
        node = parse_tlv_tree(data, pos, end)
    except RecognitionError as err:
        return (err.code, err.offset, err.message)
    return (node.tag, node.content_length, node.content_offset)


def header_expected(data, end: int):
    """The spec's reading of a header at 0 whose content is all of data[..:end], or an overrun."""
    spec = header_spec(data, 0, end, True)
    if isinstance(spec[0], Code) or spec[1] + spec[2] <= end:
        return spec
    return (Code.TRUNCATED_INPUT, end, f"declared length {spec[1]} overruns input")


class TestInlineHeader:
    """The scanner's inline header decoder against delta_length and the readers built on it.

    Each length prefix is checked three ways: complete, with content
    where it fits; cut short at the input end, where the readers say
    TRUNCATED_INPUT; and cut short at a parent's end, inside a SEQUENCE
    that the input goes on past, where they say CHILD_OVERFLOW.
    """

    def check_prefix(self, prefix: bytes, buf: bytearray | None = None):
        header = b"\x04" + prefix
        data = bytes(header)
        assert header_scanned(data, 0, len(data)) == header_expected(data, len(data)), prefix.hex()
        spec = header_spec(data, 0, len(data), True)
        if buf is not None and not isinstance(spec[0], Code):
            buf[: len(header)] = header
            end = spec[2] + spec[1]
            assert header_scanned(buf, 0, end) == header_spec(buf, 0, end, True), prefix.hex()
        for cut in range(1, len(prefix)):
            short = header[: 1 + cut]
            assert header_scanned(short, 0, len(short)) == header_spec(short, 0, len(short), True), short.hex()
            nested = bytes([0x30, len(short)]) + short + b"\x00"
            got = header_scanned(nested, 0, len(nested))
            assert got == header_spec(nested, 2, 2 + len(short), False), short.hex()

    def test_every_short_form_length(self):
        buf = bytearray(0x80 + 2)
        for b in range(0x80):
            self.check_prefix(bytes([b]), buf)

    def test_every_one_octet_long_form(self):
        buf = bytearray(0x100 + 3)
        for b in range(0x100):
            self.check_prefix(bytes([0x81, b]), buf)

    def test_every_two_octet_long_form(self):
        buf = bytearray(0x10000 + 4)
        for b1 in range(0x100):
            for b2 in range(0x100):
                self.check_prefix(bytes([0x82, b1, b2]), buf)

    def test_sampled_three_and_four_octet_long_forms(self):
        rng = random.Random(0x8384)
        for _ in range(2000):
            self.check_prefix(bytes([0x83]) + rng.randbytes(3))
            self.check_prefix(bytes([0x84]) + rng.randbytes(4))
        for prefix in (b"\x83\x00\x00\x00", b"\x83\x00\xff\xff", b"\x84\x00\x01\x00\x00", b"\x84\x01\x00\x00\x00"):
            self.check_prefix(prefix)

    def test_every_first_length_octet_alone(self):
        for b in range(0x100):
            self.check_prefix(bytes([b]))

    def test_every_first_identifier_octet(self):
        for b0 in range(0x100):
            high = b0 & 0x1F == 0x1F
            data = bytes([b0, 0x1F, 0x00] if high else [b0, 0x00])
            assert header_scanned(data, 0, len(data)) == header_spec(data, 0, len(data), True), hex(b0)
            if not high:
                assert parse_tlv_tree(data).tag == b0, hex(b0)
            short = bytes([b0])
            assert header_scanned(short, 0, 1) == header_spec(short, 0, 1, True), hex(b0)
            nested = bytes([0x30, 1, b0, 0x00])
            assert header_scanned(nested, 0, len(nested)) == header_spec(nested, 2, 3, False), hex(b0)
