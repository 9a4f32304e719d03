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

delta_length is that function, the executable specification of length
decoding.

parse_tlv_tree adds nesting back in offset form: one left-to-right scan
over a region [start, end) of a buffer, with an explicit stack of
(end offset, child list) pairs, one per open constructed element.  The
offset where a level ends stands for its counter of octets still owed,
so nothing is decremented: a child whose end passes its parent's is
rejected as soon as its length is known, the top level closes when the
scan reaches its end (a child ending with its parent closes both), and
the stack height is the depth the cap applies to.  Every header
consumes at least two octets, so the scan terminates; it does not
recurse, so no input can exhaust the Python stack.

The common header, a low tag number with a short, 0x81 or 0x82 length,
is decoded inline and must agree with delta_length (the tests check
every such prefix).  Any other header goes through the octet-at-a-time
readers built on delta_length, which own every header error's code,
offset and message.  Payloads inside an OCTET STRING or BIT STRING are
parsed as regions of the whole document, so every node and error has an
absolute document offset, and the region end acts as the input end.
The scan is the only place a TlvNode is built: it stores the node's
slots directly, since the class has no constructor.
"""

from __future__ import annotations

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


_TAG_CLASSES = ("universal", "application", "context", "private")
# (class, constructed, number) of each one-octet identifier; None marks the high-tag-number escape.
_LOW_TAGS = [None if b & 0x1F == 0x1F else (_TAG_CLASSES[b >> 6], b & 0x20 != 0, b & 0x1F) for b in range(256)]


class TlvNode:
    """One element of the parsed tree, with exact offsets into buffer.

    For a constructed node the children tile [content_offset,
    content_offset + content_length) exactly, in input order; a primitive
    node's children is an empty list.  content and raw are slices of
    buffer made on demand.  Nodes are built only by parse_tlv_tree, which
    stores the slots itself; there is no public constructor.
    """

    __slots__ = (
        "tag_class", "constructed", "tag_number", "header_offset",
        "content_offset", "content_length", "children", "buffer",
    )
    tag_class: str
    constructed: bool
    tag_number: int
    header_offset: int
    content_offset: int
    content_length: int
    children: list[TlvNode]
    buffer: bytes

    @property
    def content(self) -> bytes:
        return self.buffer[self.content_offset : self.content_offset + self.content_length]

    @property
    def raw(self) -> bytes:
        return self.buffer[self.header_offset : self.content_offset + self.content_length]

    def is_universal(self, tag_number: int, constructed: bool | None = None) -> bool:
        shape_ok = constructed in (None, self.constructed)
        return shape_ok and self.tag_number == tag_number and self.tag_class == "universal"

    def is_context(self, tag_number: int, constructed: bool | None = None) -> bool:
        shape_ok = constructed in (None, self.constructed)
        return shape_ok and self.tag_number == tag_number and self.tag_class == "context"

    def describe_tag(self) -> str:
        shape = "constructed" if self.constructed else "primitive"
        return f"{self.tag_class} {self.tag_number} ({shape})"


def _out_of_bytes(at_input_end: bool, offset: int, what: str) -> RecognitionError:
    """A header cut short at offset: by the input's end, or by the enclosing element's."""
    if at_input_end:
        return RecognitionError(Code.TRUNCATED_INPUT, offset=offset, message=f"input ends inside {what}")
    return RecognitionError(Code.CHILD_OVERFLOW, offset=offset, message=f"{what} run past parent extent")


def _read_identifier(data: bytes, pos: int, limit: int, at_input_end: bool) -> tuple[str, bool, int, int]:
    """Parse identifier octets starting at pos, bounded by limit.

    High-tag-number form is decoded here per the encoding rules; whether a
    multi-byte tag is acceptable is the grammar's business, not ours.
    """
    if pos >= limit:
        raise _out_of_bytes(at_input_end, pos, "identifier octets")
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
                raise _out_of_bytes(at_input_end, pos, "identifier octets")
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
            raise _out_of_bytes(at_input_end, pos, "length octets")
        try:
            state = delta_length(state, data[pos])
        except RecognitionError as err:
            err.offset = pos
            raise
        pos += 1
    return decode_length(state), pos


def parse_tlv_tree(
    data: bytes,
    start: int = 0,
    end: int | None = None,
    *,
    max_depth: int = MAX_DEPTH,
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
    if end - start > CONTENT_MAX:
        raise RecognitionError(
            Code.LENGTH_TOO_LARGE,
            offset=start,
            message=f"input of {end - start} bytes exceeds cap {CONTENT_MAX}",
        )
    low_tags = _LOW_TAGS
    new = object.__new__
    # limit is where the innermost open element ends (the region end at
    # the top level) and kids is its child list; opening an element pushes
    # the pair (limit, kids) on outer, closing it pops them back.
    outer: list[tuple[int, list[TlvNode]]] = []
    limit = end
    top: list[TlvNode] = []
    kids = top
    pos = start
    while True:
        header = pos
        # Inline header: low tag number and a short, 0x81 or 0x82 length.
        # Anything else, errors included, goes to the octet-at-a-time readers.
        length = -1
        if pos + 1 < limit and (tag := low_tags[data[pos]]) is not None:
            first = data[pos + 1]
            if first < 0x80:
                length = first
                pos += 2
            elif first == 0x81:
                if pos + 2 < limit and data[pos + 2] >= 0x80:
                    length = data[pos + 2]
                    pos += 3
            elif first == 0x82:
                if pos + 3 < limit and data[pos + 2]:
                    length = (data[pos + 2] << 8) | data[pos + 3]
                    pos += 4
        if length >= 0:
            tag_class, constructed, tag_number = tag
        else:
            at_input_end = limit == end
            tag_class, constructed, tag_number, pos = _read_identifier(data, pos, limit, at_input_end)
            length, pos = _read_length(data, pos, limit, at_input_end)
        stop = pos + length
        if stop > limit:
            if limit == end:
                raise RecognitionError(
                    Code.TRUNCATED_INPUT, offset=limit, message=f"declared length {length} overruns input"
                )
            raise RecognitionError(
                Code.CHILD_OVERFLOW, offset=header, message=f"declared length {length} overruns parent extent"
            )
        # Slots stored inline: a constructor call would cost a Python frame per node.
        node = new(TlvNode)
        node.tag_class = tag_class
        node.constructed = constructed
        node.tag_number = tag_number
        node.header_offset = header
        node.content_offset = pos
        node.content_length = length
        node.children = []
        node.buffer = data
        kids.append(node)
        if constructed:
            if len(outer) >= max_depth:
                raise RecognitionError(Code.NESTING_TOO_DEEP, offset=header)
            if length:
                outer.append((limit, kids))
                limit = stop
                kids = node.children
                continue
        pos = stop
        # Close every element that ends here; the root closing ends the scan.
        while pos == limit and outer:
            limit, kids = outer.pop()
        if not outer:
            break
    if pos != end:
        raise RecognitionError(Code.TRAILING_BYTES, offset=pos, message=f"{end - pos} byte(s) after element")
    return top[0]


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
