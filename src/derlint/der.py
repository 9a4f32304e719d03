"""Structural recognition of DER element trees.

The length/content discipline of DER is regular once nesting is factored
out, and this module implements it as an explicit finite transition
function over integer-encoded states:

* states 0 .. 2**32-1 are counting states: the number of content octets
  still owed at the current level (0 accepts);
* 2**32 is "one long-form length octet follows";
* 2**33, 2**34, 2**35 open the two-, three- and four-octet long-form
  paths, with partial accumulator states laid out above each base;
* 2**36 is the initial state, expecting the first length octet.

A certificate-sized input never needs more than four length octets, so
declared lengths are capped at 2**32 - 1 and anything longer is an error,
not an overflow hazard.  Short form is mandatory below 128 and leading
zero length octets are rejected, which makes the accumulator state ranges
disjoint and the transition function a pure function of the integer state.

Nesting is handled by a vector of counting states, one per open
constructed element.  Every content octet decrements all open counters at
once; a child whose declared extent exceeds its parent's remaining count
is rejected the moment its length is known.  Each transition consumes one
input octet and either enters a (finite) length-decoding path or strictly
decreases a counter, so recognition always terminates.

parse_tlv_tree builds the element tree with exact offsets while enforcing
the same rules; primitive content is consumed in slices rather than octet
by octet, which changes nothing observable.  It parses a region
[start, end) of a buffer in place: a payload carried inside an OCTET
STRING or BIT STRING is parsed as a region of the whole document, so
every node and every error carries an absolute document offset, and the
region end plays the part of the input end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .diagnostics import Code, RecognitionError

# State space layout.  Counting states occupy [0, CONTENT_MAX]; the length
# paths sit above them; Q0 sits above everything.
CONTENT_MAX = (1 << 32) - 1
L1 = 1 << 32  # one more long-form length octet expected
L2 = 1 << 33  # two-octet path base
L3 = 1 << 34  # three-octet path base
L4 = 1 << 35  # four-octet path base
Q0 = 1 << 36  # initial state, before any length octet

# Default cap on constructed nesting depth.
MAX_DEPTH = 64

LengthAutomatonState = int


def is_counting(state: LengthAutomatonState) -> bool:
    return 0 <= state <= CONTENT_MAX


def is_accepting(state: LengthAutomatonState) -> bool:
    return state == 0


def delta_length(state: LengthAutomatonState, byte: int) -> LengthAutomatonState:
    """One step of the length-decoding transition function.

    state must be Q0 or an intermediate length-accumulation state; the
    returned state is either another accumulation state or a counting
    state carrying the fully decoded content length.  Raises
    RecognitionError (without an offset; callers know where they are) for
    the forbidden 0x80 octet, prefixes declaring more than four length
    octets, and non-minimal encodings.
    """
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"byte out of range: {byte}")

    if state == Q0:
        if byte <= 0x7F:
            return byte  # short form
        if byte == 0x80:
            # Indefinite form, forbidden in DER.
            raise RecognitionError(Code.LENGTH_BYTE_FORBIDDEN, message="length octet 0x80")
        if byte == 0x81:
            return L1
        if byte == 0x82:
            return L2
        if byte == 0x83:
            return L3
        if byte == 0x84:
            return L4
        # 0x85..0xFF declare five or more length octets (0xFF is reserved
        # outright); either way the value cannot fit under the cap.
        raise RecognitionError(
            Code.LENGTH_TOO_LARGE, message=f"length prefix 0x{byte:02x}"
        )

    if state == L1:
        if byte < 0x80:
            # Long form used where short form suffices.
            raise RecognitionError(
                Code.NON_MINIMAL_LENGTH, message=f"long form for length {byte}"
            )
        return byte

    if state == L2:
        if byte == 0:
            raise RecognitionError(Code.NON_MINIMAL_LENGTH, message="leading zero length octet")
        return L2 + 1 + byte
    if L2 < state <= L2 + 256:
        return ((state - (L2 + 1)) << 8) + byte

    if state == L3:
        if byte == 0:
            raise RecognitionError(Code.NON_MINIMAL_LENGTH, message="leading zero length octet")
        return L3 + 1 + byte
    if L3 < state <= L3 + 256:
        return L3 + 1 + byte + ((state - (L3 + 1)) << 8)
    if L3 + 256 < state <= L3 + 65536:
        return ((state - (L3 + 1)) << 8) + byte

    if state == L4:
        if byte == 0:
            raise RecognitionError(Code.NON_MINIMAL_LENGTH, message="leading zero length octet")
        return L4 + 1 + byte
    if L4 < state <= L4 + 256:
        return L4 + 1 + byte + ((state - (L4 + 1)) << 8)
    if L4 + 256 < state <= L4 + 65536:
        return L4 + 1 + byte + ((state - (L4 + 1)) << 8)
    if L4 + 65536 < state <= L4 + (1 << 24):
        return ((state - (L4 + 1)) << 8) + byte

    raise ValueError(f"not a length-decoding state: {state}")


def decode_length(state: LengthAutomatonState) -> int:
    """Content length carried by a counting state."""
    if not is_counting(state):
        raise ValueError(f"not a counting state: {state}")
    return state


class NestingStack:
    """Vector of counting states, one per open constructed element.

    The innermost level is the top of the stack.  step() consumes one
    content octet: every open counter decreases by one, and levels whose
    counter reaches zero are popped (a child finishing exactly when its
    parent does cascades).  push() opens a new level once a child's
    content length is known, enforcing that the child fits inside its
    parent's remaining extent.
    """

    def __init__(self, levels: list[int] | None = None):
        self.levels: list[int] = list(levels or [])

    def __len__(self) -> int:
        return len(self.levels)

    def remaining(self) -> int | None:
        return self.levels[-1] if self.levels else None

    def push(self, count: int) -> None:
        if not 0 <= count <= CONTENT_MAX:
            raise ValueError(f"count out of range: {count}")
        if self.levels and count > self.levels[-1]:
            raise RecognitionError(
                Code.CHILD_OVERFLOW,
                message=f"child needs {count} octets, parent has {self.levels[-1]} left",
            )
        if len(self.levels) >= MAX_DEPTH:
            raise RecognitionError(Code.NESTING_TOO_DEEP)
        self.levels.append(count)
        self._settle()

    def step(self, byte: int) -> None:
        if not self.levels:
            raise ValueError("no open level")
        if self.levels[-1] == 0:
            raise ValueError("top of stack is not a counting state >= 1")
        for i in range(len(self.levels)):
            self.levels[i] -= 1
        self._settle()

    def _settle(self) -> None:
        while self.levels and self.levels[-1] == 0:
            self.levels.pop()

    def accepting(self) -> bool:
        return not self.levels


def step_counting(stack: list[int], byte: int) -> list[int]:
    """Functional form of NestingStack.step for a bare state vector."""
    ns = NestingStack(stack)
    ns.step(byte)
    return ns.levels


class Span(NamedTuple):
    start: int
    end: int


_TAG_CLASSES = ("universal", "application", "context", "private")


@dataclass
class TlvNode:
    """One element of the parsed tree, with exact input offsets.

    content_offset + content_length == raw_span.end always holds; for a
    constructed node the children tile [content_offset, raw_span.end)
    exactly, in input order.
    """

    tag_class: str
    constructed: bool
    tag_number: int
    header_offset: int
    content_offset: int
    content_length: int
    children: list["TlvNode"] = field(default_factory=list)
    raw_span: Span = Span(0, 0)
    buffer: bytes = field(default=b"", repr=False)

    @property
    def content(self) -> bytes:
        return self.buffer[self.content_offset : self.content_offset + self.content_length]

    @property
    def raw(self) -> bytes:
        return self.buffer[self.raw_span.start : self.raw_span.end]

    def is_universal(self, tag_number: int, constructed: bool | None = None) -> bool:
        ok = self.tag_class == "universal" and self.tag_number == tag_number
        if constructed is not None:
            ok = ok and self.constructed == constructed
        return ok

    def is_context(self, tag_number: int, constructed: bool | None = None) -> bool:
        ok = self.tag_class == "context" and self.tag_number == tag_number
        if constructed is not None:
            ok = ok and self.constructed == constructed
        return ok

    def describe_tag(self) -> str:
        shape = "constructed" if self.constructed else "primitive"
        return f"{self.tag_class} {self.tag_number} ({shape})"


def _read_identifier(data: bytes, pos: int, limit: int, at_input_end: bool) -> tuple[str, bool, int, int]:
    """Parse identifier octets starting at pos, bounded by limit.

    High-tag-number form is decoded here per the encoding rules; whether a
    multi-byte tag is acceptable is the grammar's business, not ours.
    """
    def _out_of_bytes(offset: int) -> RecognitionError:
        if at_input_end:
            return RecognitionError(Code.TRUNCATED_INPUT, offset=offset, message="input ends inside identifier octets")
        return RecognitionError(Code.CHILD_OVERFLOW, offset=offset, message="identifier octets run past parent extent")

    if pos >= limit:
        raise _out_of_bytes(pos)
    b0 = data[pos]
    tag_class = _TAG_CLASSES[b0 >> 6]
    constructed = bool(b0 & 0x20)
    number = b0 & 0x1F
    pos += 1
    if number == 0x1F:
        # High form: base-128 continuation octets.
        number = 0
        first = True
        while True:
            if pos >= limit:
                raise _out_of_bytes(pos)
            b = data[pos]
            if first and b == 0x80:
                raise RecognitionError(
                    Code.LEXING_ERROR, offset=pos, message="leading 0x80 in high-form tag number"
                )
            first = False
            number = (number << 7) | (b & 0x7F)
            if number > CONTENT_MAX:
                raise RecognitionError(
                    Code.LEXING_ERROR, offset=pos, message="tag number exceeds 2**32-1"
                )
            pos += 1
            if not b & 0x80:
                break
        if number < 31:
            raise RecognitionError(
                Code.LEXING_ERROR,
                offset=pos - 1,
                message=f"tag number {number} encoded in high form",
            )
    return tag_class, constructed, number, pos


def _read_length(data: bytes, pos: int, limit: int, at_input_end: bool) -> tuple[int, int]:
    state = Q0
    while not is_counting(state):
        if pos >= limit:
            if at_input_end:
                raise RecognitionError(
                    Code.TRUNCATED_INPUT, offset=pos, message="input ends inside length octets"
                )
            raise RecognitionError(
                Code.CHILD_OVERFLOW, offset=pos, message="length octets run past parent extent"
            )
        try:
            state = delta_length(state, data[pos])
        except RecognitionError as err:
            raise RecognitionError(err.code, offset=pos, message=err.message) from None
        pos += 1
    return decode_length(state), pos


def _parse_node(
    data: bytes,
    pos: int,
    limit: int,
    region_end: int,
    depth: int,
    max_depth: int,
) -> TlvNode:
    at_input_end = limit == region_end
    header_offset = pos
    tag_class, constructed, tag_number, pos = _read_identifier(data, pos, limit, at_input_end)
    content_length, pos = _read_length(data, pos, limit, at_input_end)
    end = pos + content_length
    if end > limit:
        if at_input_end:
            raise RecognitionError(
                Code.TRUNCATED_INPUT,
                offset=limit,
                message=f"declared length {content_length} overruns input",
            )
        raise RecognitionError(
            Code.CHILD_OVERFLOW,
            offset=header_offset,
            message=f"declared length {content_length} overruns parent extent",
        )
    node = TlvNode(
        tag_class=tag_class,
        constructed=constructed,
        tag_number=tag_number,
        header_offset=header_offset,
        content_offset=pos,
        content_length=content_length,
        raw_span=Span(header_offset, end),
        buffer=data,
    )
    if constructed:
        if depth + 1 > max_depth:
            raise RecognitionError(Code.NESTING_TOO_DEEP, offset=header_offset)
        cur = pos
        while cur < end:
            child = _parse_node(data, cur, end, region_end, depth + 1, max_depth)
            node.children.append(child)
            cur = child.raw_span.end
        # cur == end exactly: every child was bounded by end above.
    return node


def parse_tlv_tree(
    data: bytes,
    start: int = 0,
    end: int | None = None,
    *,
    max_depth: int = MAX_DEPTH,
    max_size: int = CONTENT_MAX,
) -> TlvNode:
    """Parse one complete DER element from the region data[start:end].

    end defaults to the end of data.  The region must hold exactly one
    element: anything after it is TRAILING_BYTES, anything missing is
    TRUNCATED_INPUT.  All structural errors raise RecognitionError with
    the offset of the offending octet in data, and nodes carry offsets
    in data too.
    """
    if end is None:
        end = len(data)
    if start == end:
        raise RecognitionError(Code.TRUNCATED_INPUT, offset=start, message="empty input")
    if end - start > max_size:
        raise RecognitionError(
            Code.LENGTH_TOO_LARGE,
            offset=start,
            message=f"input of {end - start} bytes exceeds cap {max_size}",
        )
    root = _parse_node(data, start, end, end, 0, max_depth)
    if root.raw_span.end != end:
        raise RecognitionError(
            Code.TRAILING_BYTES,
            offset=root.raw_span.end,
            message=f"{end - root.raw_span.end} byte(s) after element",
        )
    return root


# Toy recognizer for the radix-4 warm-up language: d1 d2 a^n with digits
# d1, d2 in {0..3} and n = 4*d1 + d2.  Same integer-state idea in
# miniature: counting states 0..15, digit states 16+i, initial state 32.
_TOY_Q0 = 1 << 5
_TOY_DIGIT_BASE = 1 << 4


def toy_delta(state: int, symbol: str) -> int | None:
    """Single transition of the toy automaton; None means reject."""
    if symbol in "0123":
        t = int(symbol)
        if state == _TOY_Q0:
            return _TOY_DIGIT_BASE + t
        if _TOY_DIGIT_BASE <= state < _TOY_Q0:
            return (state - _TOY_DIGIT_BASE) * 4 + t
        return None
    if symbol == "a":
        if 1 <= state <= 15:
            return state - 1
        return None
    return None


def recognize_toy(text: str) -> bool:
    """Accept exactly the strings d1 d2 a^(4*d1+d2) over {0,1,2,3,a}."""
    state = _TOY_Q0
    for ch in text:
        nxt = toy_delta(state, ch)
        if nxt is None:
            return False
        state = nxt
    return state == 0
