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
slots directly, since the class has no constructor.  It builds them only
under a root that ends where the region does: under one that ends early
the scan makes the same checks and reports the same first error, at the
latest TRAILING_BYTES, but keeps no node.
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

# Every code raised here, bound once: a Code.X read costs over ten global reads (EnumType.__getattr__).
_FORBIDDEN, _TOO_LARGE, _NON_MINIMAL, _LEXING = (
    Code.LENGTH_BYTE_FORBIDDEN, Code.LENGTH_TOO_LARGE, Code.NON_MINIMAL_LENGTH, Code.LEXING_ERROR
)
_TRUNCATED, _OVERFLOW, _TOO_DEEP, _TRAILING = (
    Code.TRUNCATED_INPUT, Code.CHILD_OVERFLOW, Code.NESTING_TOO_DEEP, Code.TRAILING_BYTES
)

LengthAutomatonState = int


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
            raise RecognitionError(_FORBIDDEN, message="length octet 0x80")
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
        raise RecognitionError(_TOO_LARGE, message=f"length prefix 0x{byte:02x}")

    if state == L1:
        if byte < 0x80:
            # Long form used where short form suffices.
            raise RecognitionError(_NON_MINIMAL, message=f"long form for length {byte}")
        return byte

    if state == L2:
        if byte == 0:
            raise RecognitionError(_NON_MINIMAL, message="leading zero length octet")
        return L2 + 1 + byte
    if L2 < state <= L2 + 256:
        return ((state - (L2 + 1)) << 8) + byte

    if state == L3:
        if byte == 0:
            raise RecognitionError(_NON_MINIMAL, message="leading zero length octet")
        return L3 + 1 + byte
    if L3 < state <= L3 + 256:
        return L3 + 1 + byte + ((state - (L3 + 1)) << 8)
    if L3 + 256 < state <= L3 + 65536:
        return ((state - (L3 + 1)) << 8) + byte

    if state == L4:
        if byte == 0:
            raise RecognitionError(_NON_MINIMAL, message="leading zero length octet")
        return L4 + 1 + byte
    if L4 < state <= L4 + 256:
        return L4 + 1 + byte + ((state - (L4 + 1)) << 8)
    if L4 + 256 < state <= L4 + 65536:
        return L4 + 1 + byte + ((state - (L4 + 1)) << 8)
    if L4 + 65536 < state <= L4 + (1 << 24):
        return ((state - (L4 + 1)) << 8) + byte

    raise ValueError(f"not a length-decoding state: {state}")


_TAG_CLASSES = ("universal", "application", "context", "private")


class TlvNode:
    """One element of the parsed tree, with exact offsets into buffer.

    tag is the identifier octet (X.690 8.1.2): class in its top two bits,
    0x20 for constructed, and the tag number in the low five, so a
    universal primitive tag equals its number and a SEQUENCE is 0x30.  A
    high-form number n is stored as (n << 8) | first octet, which never
    equals a one-octet tag.  tag_class, constructed and tag_number are read
    from it, for describe_tag and the tests.

    For a constructed node the children tile [content_offset,
    content_offset + content_length) exactly, in input order; every
    primitive node shares one empty tuple.  content and raw are slices of
    buffer made on demand.  Nodes are built only by parse_tlv_tree, which
    stores the slots itself; there is no public constructor.
    """

    __slots__ = ("tag", "header_offset", "content_offset", "content_length", "children", "buffer")
    tag: int
    header_offset: int
    content_offset: int
    content_length: int
    children: list[TlvNode] | tuple[()]
    buffer: bytes

    @property
    def tag_class(self) -> str:
        return _TAG_CLASSES[self.tag >> 6 & 3]

    @property
    def constructed(self) -> bool:
        return bool(self.tag & 0x20)

    @property
    def tag_number(self) -> int:
        return self.tag >> 8 if self.tag > 0xFF else self.tag & 0x1F

    @property
    def content(self) -> bytes:
        return self.buffer[self.content_offset : self.content_offset + self.content_length]

    @property
    def raw(self) -> bytes:
        return self.buffer[self.header_offset : self.content_offset + self.content_length]

    def describe_tag(self) -> str:
        shape = "constructed" if self.constructed else "primitive"
        return f"{self.tag_class} {self.tag_number} ({shape})"


def _out_of_bytes(at_input_end: bool, offset: int, what: str) -> RecognitionError:
    """A header cut short at offset: by the input's end, or by the enclosing element's."""
    if at_input_end:
        return RecognitionError(_TRUNCATED, offset=offset, message=f"input ends inside {what}")
    return RecognitionError(_OVERFLOW, offset=offset, message=f"{what} run past parent extent")


def _read_identifier(data: bytes, pos: int, limit: int, at_input_end: bool) -> tuple[int, int]:
    """Parse identifier octets starting at pos, bounded by limit, into (tag, position after them).

    High-tag-number form is decoded here per the encoding rules; whether a
    multi-byte tag is acceptable is the grammar's business, not ours.
    """
    if pos >= limit:
        raise _out_of_bytes(at_input_end, pos, "identifier octets")
    b0 = data[pos]
    pos += 1
    if b0 & 0x1F == 0x1F:
        # High form: base-128 continuation octets.
        number = 0
        first = True
        while True:
            if pos >= limit:
                raise _out_of_bytes(at_input_end, pos, "identifier octets")
            b = data[pos]
            if first and b == 0x80:
                raise RecognitionError(_LEXING, offset=pos, message="leading 0x80 in high-form tag number")
            first = False
            number = (number << 7) | (b & 0x7F)
            if number > CONTENT_MAX:
                raise RecognitionError(_LEXING, offset=pos, message="tag number exceeds 2**32-1")
            pos += 1
            if not b & 0x80:
                break
        if number < 31:
            raise RecognitionError(_LEXING, offset=pos - 1, message=f"tag number {number} encoded in high form")
        return number << 8 | b0, pos
    return b0, pos


def _read_length(data: bytes, pos: int, limit: int, at_input_end: bool) -> tuple[int, int]:
    state = Q0
    while not 0 <= state <= CONTENT_MAX:  # until a counting state, which carries the content length
        if pos >= limit:
            raise _out_of_bytes(at_input_end, pos, "length octets")
        try:
            state = delta_length(state, data[pos])
        except RecognitionError as err:
            err.offset = pos
            raise
        pos += 1
    return state, pos


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
        raise RecognitionError(_TRUNCATED, offset=start, message="empty input")
    if end - start > CONTENT_MAX:
        raise RecognitionError(
            _TOO_LARGE,
            offset=start,
            message=f"input of {end - start} bytes exceeds cap {CONTENT_MAX}",
        )
    new = object.__new__
    # limit is where the innermost open element ends (the region end at
    # the top level) and kids is its child list; opening an element pushes
    # the pair (limit, kids) on outer, closing it pops them back.
    outer: list[tuple[int, list[TlvNode]]] = []
    limit = end
    top: list[TlvNode] = []
    kids = top
    # Whether elements are built.  Only the root can end where the region
    # does, so the root's header decides; a root that ends early can only
    # end in an error, TRAILING_BYTES at the latest, so under it the scan
    # makes the same checks in the same order and keeps no node.
    build = False
    pos = start
    while True:
        header = pos
        # Inline header: low tag number and a short, 0x81 or 0x82 length.
        # Anything else, errors included, goes to the octet-at-a-time readers.
        length = -1
        if pos + 1 < limit and (tag := data[pos]) & 0x1F != 0x1F:
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
        if length < 0:
            at_input_end = limit == end
            tag, pos = _read_identifier(data, pos, limit, at_input_end)
            length, pos = _read_length(data, pos, limit, at_input_end)
        stop = pos + length
        if stop > limit:
            if limit == end:
                raise RecognitionError(_TRUNCATED, offset=limit, message=f"declared length {length} overruns input")
            raise RecognitionError(_OVERFLOW, offset=header, message=f"declared length {length} overruns parent extent")
        if not build:
            build = stop == end
            if not build:
                # The depth check and the closing below, repeated so that a built node pays only the test above.
                if tag & 0x20:
                    if len(outer) >= max_depth:
                        raise RecognitionError(_TOO_DEEP, offset=header)
                    if length:
                        outer.append((limit, kids))
                        limit = stop
                        continue
                pos = stop
                while pos == limit and outer:
                    limit, kids = outer.pop()
                if not outer:
                    break
                continue
        # Slots stored inline: a constructor call would cost a Python frame per node.
        node = new(TlvNode)
        node.tag = tag
        node.header_offset = header
        node.content_offset = pos
        node.content_length = length
        node.buffer = data
        kids.append(node)
        if tag & 0x20:
            if len(outer) >= max_depth:
                raise RecognitionError(_TOO_DEEP, offset=header)
            node.children = []
            if length:
                outer.append((limit, kids))
                limit = stop
                kids = node.children
                continue
        else:
            node.children = ()
        pos = stop
        # Close every element that ends here; the root closing ends the scan.
        while pos == limit and outer:
            limit, kids = outer.pop()
        if not outer:
            break
    if pos != end:
        raise RecognitionError(_TRAILING, offset=pos, message=f"{end - pos} byte(s) after element")
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
