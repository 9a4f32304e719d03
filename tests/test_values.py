"""Primitive value decoding: integers, booleans, OIDs, bit strings, strings, time."""

import calendar as _cal
import datetime as _dt
import random

import pytest

from derlint.der import parse_tlv_tree
from derlint.diagnostics import Code, RecognitionError
from derlint.values import (
    decode_bit_string,
    decode_boolean,
    decode_integer,
    decode_oid,
    dotted,
    days_in_month,
    is_leap_year,
    validate_charset,
    validate_time,
)

from support import encoder as enc


def node_of(data: bytes):
    return parse_tlv_tree(data)


def err_code(fn, *args, **kwargs) -> Code:
    with pytest.raises(RecognitionError) as exc:
        fn(*args, **kwargs)
    return exc.value.code


class TestInteger:
    def test_round_trip_random(self):
        rng = random.Random(0x1217)
        values = [0, 1, -1, 127, 128, -128, -129, 255, 256, 65537]
        values += [rng.randrange(-(1 << 256), 1 << 256) for _ in range(4000)]
        for v in values:
            assert decode_integer(node_of(enc.integer(v))) == v

    def test_padded_positive_rejected(self):
        assert err_code(decode_integer, node_of(b"\x02\x02\x00\x01")) is Code.NON_MINIMAL_INTEGER
        assert err_code(decode_integer, node_of(b"\x02\x03\x00\x7f\xff")) is Code.NON_MINIMAL_INTEGER

    def test_padded_negative_rejected(self):
        assert err_code(decode_integer, node_of(b"\x02\x02\xff\xff")) is Code.NON_MINIMAL_INTEGER
        assert err_code(decode_integer, node_of(b"\x02\x02\xff\x80")) is Code.NON_MINIMAL_INTEGER

    def test_boundary_pads_are_legitimate(self):
        # 0x00 before a high bit and 0xff before a low bit are required.
        assert decode_integer(node_of(b"\x02\x02\x00\x80")) == 128
        assert decode_integer(node_of(b"\x02\x02\xff\x7f")) == -129

    def test_empty_content(self):
        assert err_code(decode_integer, node_of(b"\x02\x00")) is Code.EMPTY_VALUE_FIELD


class TestBoolean:
    def test_canonical_values(self):
        assert decode_boolean(node_of(enc.boolean(True))) is True
        assert decode_boolean(node_of(enc.boolean(False))) is False

    def test_all_noncanonical_bytes_rejected(self):
        for b in range(0x01, 0xFF):
            code = err_code(decode_boolean, node_of(bytes([0x01, 0x01, b])))
            assert code is Code.NON_CANONICAL_BOOLEAN

    def test_wrong_lengths(self):
        assert err_code(decode_boolean, node_of(b"\x01\x00")) is Code.EMPTY_VALUE_FIELD
        assert err_code(decode_boolean, node_of(b"\x01\x02\xff\xff")) is Code.NON_CANONICAL_BOOLEAN


class TestOid:
    def test_round_trip_known(self):
        for text in ("2.5.29.19", "1.2.840.113549.1.1.11", "0.0", "1.39", "2.999.1"):
            arcs = decode_oid(node_of(enc.oid(text)))
            assert dotted(arcs) == text

    def test_round_trip_random(self):
        rng = random.Random(0x01D)
        for _ in range(3000):
            first = rng.randrange(3)
            second = rng.randrange(40) if first < 2 else rng.randrange(1 << 16)
            rest = [rng.randrange(1 << rng.randrange(1, 32)) for _ in range(rng.randrange(6))]
            text = dotted(tuple([first, second] + rest))
            assert dotted(decode_oid(node_of(enc.oid(text)))) == text

    def test_arc_at_cap_accepted(self):
        cap = (1 << 32) - 1
        text = f"1.2.{cap}"
        assert dotted(decode_oid(node_of(enc.oid(text)))) == text

    def test_arc_overflow(self):
        data = enc.raw_oid(b"\x2a" + enc.encode_base128(1 << 35))
        assert err_code(decode_oid, node_of(data)) is Code.OID_ARC_OVERFLOW

    def test_first_subidentifier_overflow(self):
        data = enc.raw_oid(enc.encode_base128((1 << 32) + 200))
        assert err_code(decode_oid, node_of(data)) is Code.OID_ARC_OVERFLOW

    def test_truncated(self):
        assert err_code(decode_oid, node_of(enc.raw_oid(b"\x55\x1d\x83"))) is Code.OID_TRUNCATED

    def test_leading_pad_octet(self):
        assert err_code(decode_oid, node_of(enc.raw_oid(b"\x55\x80\x13"))) is Code.WRONG_OID

    def test_empty(self):
        assert err_code(decode_oid, node_of(enc.raw_oid(b""))) is Code.EMPTY_VALUE_FIELD


class TestBitString:
    def test_plain_round_trip(self):
        v = decode_bit_string(node_of(enc.bit_string(b"\xaa\xbb")))
        assert v.unused_bits == 0
        assert v.bits == b"\xaa\xbb"
        assert v.named_bits is None

    def test_unused_bits_must_be_zero_padded(self):
        # 0x01 as last octet with 3 unused bits: the low 3 bits are 001.
        data = b"\x03\x02\x03\x01"
        assert err_code(decode_bit_string, node_of(data)) is Code.BAD_BIT_STRING_ENCODING

    def test_unused_count_range(self):
        data = b"\x03\x02\x08\xff"
        assert err_code(decode_bit_string, node_of(data)) is Code.BAD_BIT_STRING_ENCODING

    def test_no_unused_octet(self):
        assert err_code(decode_bit_string, node_of(b"\x03\x00")) is Code.BAD_BIT_STRING_ENCODING

    def test_named_round_trip(self):
        for bits in ({0}, {5}, {0, 5}, {8}, {2, 7, 8}, set()):
            node = node_of(enc.named_bit_string(bits))
            v = decode_bit_string(node, named=True)
            assert v.named_bits == frozenset(bits)

    def test_named_trailing_zero_octet(self):
        data = b"\x03\x03\x00\x04\x00"
        assert err_code(decode_bit_string, node_of(data), named=True) is Code.WRONG_KEY_CERT_SIGN_ENCODING

    def test_named_wrong_unused_declaration(self):
        # Bit 5 set: canonical form declares 2 unused bits, not 0.
        data = b"\x03\x02\x00\x04"
        assert err_code(decode_bit_string, node_of(data), named=True) is Code.WRONG_KEY_CERT_SIGN_ENCODING


class TestCharsets:
    def test_printable_alphabet(self):
        assert validate_charset(node_of(enc.printable("Hi there='()+,-./:?"))) == "Hi there='()+,-./:?"
        for bad in ("a@b", "x_y", "a;b", "a*b"):
            assert err_code(validate_charset, node_of(enc.printable(bad))) is Code.CHAR_SET_VIOLATION

    def test_ia5_range(self):
        assert validate_charset(node_of(enc.ia5("a@b.example\x7f"))) == "a@b.example\x7f"
        assert err_code(validate_charset, node_of(b"\x16\x01\x80")) is Code.CHAR_SET_VIOLATION
        assert err_code(validate_charset, node_of(b"\x16\x01\x00")) is Code.CHAR_SET_VIOLATION

    def test_utf8(self):
        assert validate_charset(node_of(enc.utf8("héllo"))) == "héllo"
        assert err_code(validate_charset, node_of(b"\x0c\x02\xc3\x28")) is Code.CHAR_SET_VIOLATION
        assert err_code(validate_charset, node_of(b"\x0c\x01\x00")) is Code.CHAR_SET_VIOLATION

    def test_bmp(self):
        assert validate_charset(node_of(enc.bmp("AB"))) == "AB"
        assert err_code(validate_charset, node_of(b"\x1e\x01\x00")) is Code.CHAR_SET_VIOLATION
        assert err_code(validate_charset, node_of(b"\x1e\x02\xd8\x00")) is Code.CHAR_SET_VIOLATION

    def test_permitted_set(self):
        node = node_of(enc.bmp("AB"))
        code = err_code(validate_charset, node, frozenset({19, 12}))
        assert code is Code.WRONG_STRING_TYPE

    def test_non_string_tag(self):
        assert err_code(validate_charset, node_of(enc.integer(5))) is Code.WRONG_STRING_TYPE

    @pytest.mark.parametrize("tag", [19, 22, 26])
    def test_single_byte_alphabets_match_per_byte_reference(self, tag):
        # Every byte value at the first, a middle and the last position,
        # with the string behind a NULL so that offsets are not trivial.
        base = b"Hello.example"
        for position in (0, len(base) // 2, len(base) - 1):
            for b in range(256):
                content = base[:position] + bytes([b]) + base[position + 1 :]
                node = parse_tlv_tree(enc.seq(enc.null(), bytes([tag, len(content)]) + content)).children[1]
                try:
                    got = validate_charset(node)
                except RecognitionError as err:
                    got = (err.code, err.offset, err.message)
                assert got == reference_charset(tag, content, node.content_offset), (position, b)


_BAD = Code.CHAR_SET_VIOLATION


@pytest.mark.parametrize(
    "decoder, data, expected",
    [
        # TeletexString: any octet but NUL, decoded as latin-1.
        (validate_charset, b"\x14\x03a\xe9b", "a\xe9b"),
        (validate_charset, b"\x14\x03a\x00b", (_BAD, 3, "embedded NUL")),
        # UniversalString: whole UCS-4 units of valid, non-surrogate code points; each bad unit
        # follows a valid "A" so its offset is not the content's.
        (validate_charset, b"\x1c\x03abc", (_BAD, 2, "UniversalString length not a multiple of 4")),
        (validate_charset, b"\x1c\x08\x00\x00\x00A\x00\x00\x00\x00", (_BAD, 6, "code point out of range")),
        (validate_charset, b"\x1c\x08\x00\x00\x00A\x00\x11\x00\x00", (_BAD, 6, "code point out of range")),
        (validate_charset, b"\x1c\x08\x00\x00\x00A\x00\x00\xd8\x00", (_BAD, 6, "code point out of range")),
        (validate_charset, b"\x1c\x04\x00\x01\xf6\x00", "\U0001f600"),
        (decode_bit_string, b"\x03\x01\x03", (Code.BAD_BIT_STRING_ENCODING, 2, "unused bits in empty BIT STRING")),
    ],
)
def test_decoder_branch(decoder, data, expected):
    """The decoded value, or the (code, offset, message) of the error, for one branch of a decoder."""
    try:
        got = decoder(node_of(data))
    except RecognitionError as err:
        got = (err.code, err.offset, err.message)
    assert got == expected


def reference_charset(tag: int, content: bytes, off: int):
    """The per-byte loops validate_charset ran before its compiled matchers:
    the decoded text, or the (code, offset, message) of the first bad byte."""
    if tag == 19:
        alphabet = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 '()+,-./:=?")
        for i, b in enumerate(content):
            if b not in alphabet:
                return (Code.CHAR_SET_VIOLATION, off + i, f"byte 0x{b:02x} outside PrintableString alphabet")
        return content.decode("ascii")
    kind = "visible" if tag == 26 else "ia5"
    low = 0x20 if kind == "visible" else 0x00
    high = 0x7E if kind == "visible" else 0x7F
    for i, b in enumerate(content):
        if b == 0x00 or not low <= b <= high:
            return (Code.CHAR_SET_VIOLATION, off + i, f"byte 0x{b:02x} outside {kind} range")
    return content.decode("ascii")


class TestCalendar:
    def test_leap_years_match_stdlib(self):
        for year in range(1950, 2401):
            assert is_leap_year(year) == _cal.isleap(year), year

    def test_days_in_month_match_stdlib(self):
        for year in (1999, 2000, 2004, 2100, 2200, 2400):
            for month in range(1, 13):
                assert days_in_month(year, month) == _cal.monthrange(year, month)[1]

    def test_utc_year_window(self):
        t = validate_time(node_of(enc.utctime("490101000000Z")))
        assert t.year == 2049
        t = validate_time(node_of(enc.utctime("500101000000Z")))
        assert t.year == 1950

    def test_leap_day_cases(self):
        # 2020 is a leap year; 2022 is not; 2100 is a century non-leap.
        ok = validate_time(node_of(enc.utctime("200229120000Z")))
        assert ok.as_tuple() == (2020, 2, 29, 12, 0, 0)
        assert err_code(validate_time, node_of(enc.utctime("220229120000Z"))) is Code.INVALID_DATE
        code = err_code(validate_time, node_of(enc.gentime("21000229000000Z")))
        assert code is Code.INVALID_DATE
        t = validate_time(node_of(enc.gentime("20000229000000Z")))
        assert t.year == 2000

    def test_malformed_shapes(self):
        for text in ("200101000000", "20010100000Z", "2001010000a0Z", "200101000000+0000"):
            assert err_code(validate_time, node_of(enc.utctime(text))) is Code.MALFORMED_TIME
        assert err_code(validate_time, node_of(enc.gentime("200229000000Z"))) is Code.MALFORMED_TIME
        assert err_code(validate_time, node_of(enc.integer(5))) is Code.MALFORMED_TIME

    def test_random_against_datetime(self):
        rng = random.Random(0xCA1)
        for _ in range(8000):
            year = rng.randrange(1950, 2050)
            month = rng.randrange(0, 14)
            day = rng.randrange(0, 33)
            hour = rng.randrange(0, 26)
            minute = rng.randrange(0, 62)
            second = rng.randrange(0, 62)
            text = f"{year % 100:02d}{month:02d}{day:02d}{hour:02d}{minute:02d}{second:02d}Z"
            node = node_of(enc.utctime(text))
            try:
                _dt.datetime(year, month, day, hour, minute, second)
                expected_ok = True
            except ValueError:
                expected_ok = False
            if expected_ok:
                assert validate_time(node).as_tuple() == (year, month, day, hour, minute, second)
            else:
                assert err_code(validate_time, node) is Code.INVALID_DATE
