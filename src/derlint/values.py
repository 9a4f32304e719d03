"""Strict decoders for the primitive ASN.1 values a certificate uses.

Each decoder takes a TlvNode, reads only that node's content octets, and
either returns the decoded value or raises RecognitionError with a
taxonomy code and the offset of the offending octet.  Accepted values
re-encode to byte-identical content: the decoders reject every
non-canonical spelling rather than normalizing it.

plain_oid and plain_time say, without raising, whether decode_oid and
validate_time would accept a node: the walk calls the decoder only where
they say no, so an accepted element costs one pattern match.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .der import TlvNode
from .diagnostics import Code, RecognitionError

# Universal tags used by the certificate grammar, as identifier octets: a
# primitive one equals its tag number, and a constructed one adds 0x20.
TAG_BOOLEAN = 1
TAG_INTEGER = 2
TAG_BIT_STRING = 3
TAG_OCTET_STRING = 4
TAG_NULL = 5
TAG_OID = 6
TAG_UTF8_STRING = 12
TAG_SEQUENCE = 0x30
TAG_SET = 0x31
TAG_PRINTABLE_STRING = 19
TAG_TELETEX_STRING = 20
TAG_IA5_STRING = 22
TAG_UTC_TIME = 23
TAG_GENERALIZED_TIME = 24
TAG_VISIBLE_STRING = 26
TAG_UNIVERSAL_STRING = 28
TAG_BMP_STRING = 30

ARC_MAX = (1 << 32) - 1


def decode_integer(node: TlvNode) -> int:
    """Decode a two's-complement INTEGER, rejecting padded encodings."""
    content = node.content
    off = node.content_offset
    if len(content) == 0:
        raise RecognitionError(Code.EMPTY_VALUE_FIELD, offset=off, message="INTEGER with empty content")
    if len(content) >= 2:
        if content[0] == 0x00 and content[1] < 0x80:
            raise RecognitionError(
                Code.NON_MINIMAL_INTEGER, offset=off, message="leading 0x00 pad octet"
            )
        if content[0] == 0xFF and content[1] >= 0x80:
            raise RecognitionError(
                Code.NON_MINIMAL_INTEGER, offset=off, message="leading 0xff pad octet"
            )
    return int.from_bytes(content, "big", signed=True)


def decode_boolean(node: TlvNode) -> bool:
    """Decode a BOOLEAN; only 0x00 and 0xFF content is canonical."""
    content = node.content
    off = node.content_offset
    if len(content) == 0:
        raise RecognitionError(Code.EMPTY_VALUE_FIELD, offset=off, message="BOOLEAN with empty content")
    if len(content) != 1:
        raise RecognitionError(
            Code.NON_CANONICAL_BOOLEAN, offset=off, message=f"BOOLEAN of {len(content)} octets"
        )
    if content[0] == 0x00:
        return False
    if content[0] == 0xFF:
        return True
    raise RecognitionError(
        Code.NON_CANONICAL_BOOLEAN,
        offset=off,
        message=f"BOOLEAN content 0x{content[0]:02x} (canonical truth is 0xff)",
    )


def decode_oid(node: TlvNode) -> tuple[int, ...]:
    """Decode an OBJECT IDENTIFIER into its arc tuple.

    Arcs are capped at 2**32-1; larger arcs raise OID_ARC_OVERFLOW.  A
    dangling continuation octet raises OID_TRUNCATED, a leading 0x80
    continuation octet (non-minimal base-128) raises WRONG_OID; callers
    sitting in a named slot remap WRONG_OID to their slot-specific code.
    """
    content = node.content
    off = node.content_offset
    if len(content) == 0:
        raise RecognitionError(Code.EMPTY_VALUE_FIELD, offset=off, message="OID with empty content")
    arcs: list[int] = []
    value = 0
    in_arc = False
    for i, b in enumerate(content):
        if not in_arc and b == 0x80:
            raise RecognitionError(
                Code.WRONG_OID, offset=off + i, message="leading 0x80 continuation octet"
            )
        in_arc = True
        value = (value << 7) | (b & 0x7F)
        if value > ARC_MAX + 80:
            # +80 headroom: the first sub-identifier folds two arcs.
            raise RecognitionError(Code.OID_ARC_OVERFLOW, offset=off + i)
        if b & 0x80:
            continue
        if not arcs:
            # First sub-identifier splits into the first two arcs.
            if value < 40:
                arcs += [0, value]
            elif value < 80:
                arcs += [1, value - 40]
            else:
                arcs += [2, value - 80]
        else:
            arcs.append(value)
        if arcs[-1] > ARC_MAX:
            raise RecognitionError(Code.OID_ARC_OVERFLOW, offset=off + i)
        value = 0
        in_arc = False
    if in_arc:
        raise RecognitionError(
            Code.OID_TRUNCATED,
            offset=off + len(content) - 1,
            message="final octet has continuation bit set",
        )
    return tuple(arcs)


def dotted(arcs: tuple[int, ...]) -> str:
    return ".".join(str(a) for a in arcs)


# An OID's content as minimal sub-identifiers of at most 4 octets (28 bits), so no arc can pass its bound.
_PLAIN_OID = re.compile(rb"(?:[\x00-\x7f]|[\x81-\xff][\x80-\xff]{0,2}[\x00-\x7f])+")  # the common one-octet arc first


def plain_oid(node: TlvNode) -> bool:
    """True for an OBJECT IDENTIFIER that decode_oid accepts, matched in place with no slice or arc loop."""
    start = node.content_offset
    return node.tag == TAG_OID and _PLAIN_OID.fullmatch(node.buffer, start, start + node.content_length) is not None


class BitStringValue(NamedTuple):
    unused_bits: int
    bits: bytes
    named_bits: frozenset[int] | None = None


def decode_bit_string(node: TlvNode, *, named: bool = False) -> BitStringValue:
    """Decode a primitive BIT STRING.

    With named=True the canonical named-bit form is enforced: trailing
    zero bits must be absent, so the declared unused count has to match
    the position of the lowest set bit and the last content octet cannot
    be zero.  Violations of that rule raise WRONG_KEY_CERT_SIGN_ENCODING
    (the named-bit consumers in a certificate are key usage flags); other
    malformations raise BAD_BIT_STRING_ENCODING.
    """
    content = node.content
    off = node.content_offset
    if len(content) == 0:
        raise RecognitionError(
            Code.BAD_BIT_STRING_ENCODING, offset=off, message="BIT STRING with no unused-bits octet"
        )
    unused = content[0]
    bits = content[1:]
    if unused > 7:
        raise RecognitionError(
            Code.BAD_BIT_STRING_ENCODING, offset=off, message=f"unused bit count {unused}"
        )
    if unused > 0 and len(bits) == 0:
        raise RecognitionError(
            Code.BAD_BIT_STRING_ENCODING, offset=off, message="unused bits in empty BIT STRING"
        )
    if unused > 0 and bits[-1] & ((1 << unused) - 1):
        raise RecognitionError(
            Code.BAD_BIT_STRING_ENCODING, offset=off + len(content) - 1, message="padding bits not zero"
        )
    named_set: frozenset[int] | None = None
    if named:
        if bits:
            last = bits[-1]
            if last == 0:
                raise RecognitionError(
                    Code.WRONG_KEY_CERT_SIGN_ENCODING,
                    offset=off + len(content) - 1,
                    message="trailing zero octet in named BIT STRING",
                )
            trailing = 0
            probe = last
            while not probe & 1:
                trailing += 1
                probe >>= 1
            if unused != trailing:
                raise RecognitionError(
                    Code.WRONG_KEY_CERT_SIGN_ENCODING,
                    offset=off,
                    message=f"declared {unused} unused bits, canonical is {trailing}",
                )
        # Bit i counts from the first octet's top bit; peel set bits off the value from its low end.
        width = len(bits) * 8
        value = int.from_bytes(bits, "big")
        indices = []
        while value:
            low = value & -value
            indices.append(width - low.bit_length())
            value ^= low
        named_set = frozenset(indices)
    return BitStringValue(unused_bits=unused, bits=bits, named_bits=named_set)


# Character sets -----------------------------------------------------------

# The first octet outside each single-byte alphabet; NUL is outside all three.
_OUTSIDE_ALPHABET = {
    "printable": re.compile(rb"[^A-Za-z0-9 '()+,\-./:=?]"),
    "ia5": re.compile(rb"[\x00\x80-\xff]"),
    "visible": re.compile(rb"[^\x20-\x7e]"),
}

STRING_KIND_BY_TAG = {
    TAG_UTF8_STRING: "utf8",
    TAG_PRINTABLE_STRING: "printable",
    TAG_TELETEX_STRING: "teletex",
    TAG_IA5_STRING: "ia5",
    TAG_VISIBLE_STRING: "visible",
    TAG_UNIVERSAL_STRING: "universal",
    TAG_BMP_STRING: "bmp",
}


def validate_charset(node: TlvNode, permitted: frozenset[int] | None = None) -> str:
    """Check a string node's content against its declared character set.

    permitted, when given, is the set of universal string tags the
    enclosing grammar slot allows; a tag outside it raises
    WRONG_STRING_TYPE before any content inspection.  Content violations
    (including embedded NUL octets, in every string kind) raise
    CHAR_SET_VIOLATION.  Returns the decoded text.
    """
    off = node.content_offset
    kind = STRING_KIND_BY_TAG.get(node.tag)
    if kind is None:
        raise RecognitionError(
            Code.WRONG_STRING_TYPE,
            offset=node.header_offset,
            message=f"not a string type: {node.describe_tag()}",
        )
    if permitted is not None and node.tag not in permitted:
        raise RecognitionError(
            Code.WRONG_STRING_TYPE, offset=node.header_offset, message=f"{kind} string not allowed here"
        )
    content = node.content

    if kind in _OUTSIDE_ALPHABET:
        bad = _OUTSIDE_ALPHABET[kind].search(content)
        if bad is not None:
            alphabet = "PrintableString alphabet" if kind == "printable" else f"{kind} range"
            raise RecognitionError(
                Code.CHAR_SET_VIOLATION,
                offset=off + bad.start(),
                message=f"byte 0x{content[bad.start()]:02x} outside {alphabet}",
            )
        return content.decode("ascii")

    if kind == "utf8":
        try:
            text = content.decode("utf-8")
        except UnicodeDecodeError as err:
            raise RecognitionError(
                Code.CHAR_SET_VIOLATION, offset=off + err.start, message="invalid UTF-8"
            ) from None
        if "\x00" in text:
            raise RecognitionError(
                Code.CHAR_SET_VIOLATION,
                offset=off + content.index(0),
                message="embedded NUL",
            )
        return text

    if kind == "bmp":
        if len(content) % 2:
            raise RecognitionError(
                Code.CHAR_SET_VIOLATION, offset=off, message="odd BMPString length"
            )
        for i in range(0, len(content), 2):
            unit = (content[i] << 8) | content[i + 1]
            if unit == 0:
                raise RecognitionError(Code.CHAR_SET_VIOLATION, offset=off + i, message="embedded NUL")
            if 0xD800 <= unit <= 0xDFFF:
                raise RecognitionError(
                    Code.CHAR_SET_VIOLATION, offset=off + i, message="surrogate code unit"
                )
        return content.decode("utf-16-be")

    if kind == "universal":
        if len(content) % 4:
            raise RecognitionError(
                Code.CHAR_SET_VIOLATION, offset=off, message="UniversalString length not a multiple of 4"
            )
        for i in range(0, len(content), 4):
            unit = int.from_bytes(content[i : i + 4], "big")
            if unit == 0 or unit > 0x10FFFF or 0xD800 <= unit <= 0xDFFF:
                raise RecognitionError(
                    Code.CHAR_SET_VIOLATION, offset=off + i, message="code point out of range"
                )
        return content.decode("utf-32-be")

    # teletex: the T.61 repertoire is a historical mess; accept any octets
    # except embedded NUL and hand back a byte-transparent decoding.
    if 0x00 in content:
        raise RecognitionError(
            Code.CHAR_SET_VIOLATION, offset=off + content.index(0), message="embedded NUL"
        )
    return content.decode("latin-1")


# Calendar -----------------------------------------------------------------

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def is_leap_year(year: int) -> bool:
    # Every fourth year, except centuries not divisible by 400.
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_month(year: int, month: int) -> int:
    if month == 2 and is_leap_year(year):
        return 29
    return _DAYS_IN_MONTH[month - 1]


class TimeValue(NamedTuple):
    year: int
    month: int
    day: int
    hour: int
    minute: int
    second: int
    kind: str  # "utc" or "generalized"

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.year, self.month, self.day, self.hour, self.minute, self.second)


def validate_time(node: TlvNode) -> TimeValue:
    """Validate a UTCTime or GeneralizedTime node against the calendar.

    Only the Zulu forms with explicit seconds are accepted: YYMMDDHHMMSSZ
    and YYYYMMDDHHMMSSZ.  Two-digit years below 50 mean 20xx, the rest
    19xx.  Dates that name a day the calendar does not contain (the 29th
    of February in a non-leap year, a 31st of April, an hour of 27) raise
    INVALID_DATE; anything not matching the format at all raises
    MALFORMED_TIME.
    """
    off = node.content_offset
    content = node.content
    if node.tag == TAG_UTC_TIME:
        kind = "utc"
        expect = 13
    elif node.tag == TAG_GENERALIZED_TIME:
        kind = "generalized"
        expect = 15
    else:
        raise RecognitionError(
            Code.MALFORMED_TIME, offset=node.header_offset, message=f"not a time type: {node.describe_tag()}"
        )
    if len(content) != expect:
        raise RecognitionError(
            Code.MALFORMED_TIME,
            offset=off,
            message=f"{len(content)} octets, expected {expect}",
        )
    if content[-1:] != b"Z":
        raise RecognitionError(Code.MALFORMED_TIME, offset=off + expect - 1, message="missing Z suffix")
    digits = content[:-1]
    if not digits.isdigit():
        raise RecognitionError(Code.MALFORMED_TIME, offset=off, message="non-digit in time value")
    text = digits.decode("ascii")
    if kind == "utc":
        yy = int(text[0:2])
        year = 1900 + yy if yy >= 50 else 2000 + yy
        rest = text[2:]
    else:
        year = int(text[0:4])
        rest = text[4:]
    month = int(rest[0:2])
    day = int(rest[2:4])
    hour = int(rest[4:6])
    minute = int(rest[6:8])
    second = int(rest[8:10])
    if not 1 <= month <= 12:
        raise RecognitionError(Code.INVALID_DATE, offset=off, message=f"month {month}")
    if not 1 <= day <= days_in_month(year, month):
        raise RecognitionError(
            Code.INVALID_DATE, offset=off, message=f"day {day} of {year}-{month:02d}"
        )
    if hour > 23 or minute > 59 or second > 59:
        raise RecognitionError(
            Code.INVALID_DATE, offset=off, message=f"time {hour:02d}:{minute:02d}:{second:02d}"
        )
    return TimeValue(year, month, day, hour, minute, second, kind)


# The Zulu forms validate_time accepts, by tag: (year)(month)(day) then hour, minute, second and Z, each in range.
_TIME_REST = rb"(0[1-9]|1[0-2])(0[1-9]|[12][0-9]|3[01])(?:[01][0-9]|2[0-3])[0-5][0-9][0-5][0-9]Z"
_PLAIN_TIMES = {
    TAG_UTC_TIME: re.compile(rb"([0-9]{2})" + _TIME_REST),
    TAG_GENERALIZED_TIME: re.compile(rb"([0-9]{4})" + _TIME_REST),
}


def plain_time(node: TlvNode) -> bool:
    """True for a UTCTime or GeneralizedTime that validate_time accepts, matched in place with no slice.

    Only a day past the 28th reads the year and month, for days_in_month.  A UTCTime's two-digit year is
    passed as it stands: each of 00-99 is a leap year exactly when the year it names (1950-2049) is one.
    """
    pattern = _PLAIN_TIMES.get(node.tag)
    start = node.content_offset
    found = pattern and pattern.fullmatch(node.buffer, start, start + node.content_length)
    if not found:
        return False
    return found[3] <= b"28" or int(found[3]) <= days_in_month(int(found[1]), int(found[2]))
