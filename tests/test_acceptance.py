"""Release acceptance checks.

Ten end-to-end checks over the whole package, each printing exactly one
PASS or FAIL line.  Run them alone with:

    pytest tests/test_acceptance.py -s

Each check gathers every problem it finds before reporting, so a FAIL
line comes with the first few offending cases in the pytest output.
"""

import gc
import hashlib
import itertools
import random
import statistics
import time

import pytest

from derlint.der import (
    CONTENT_MAX,
    L1,
    L2,
    L3,
    L4,
    Q0,
    delta_length,
    is_accepting,
    parse_tlv_tree,
    recognize_toy,
)
from derlint.diagnostics import Code, RecognitionError
from derlint.differential import (
    RULE_CA_SHADOWED,
    RULE_DISTINCT_ERROR,
    RULE_LEAF_VALID,
    classify_differential,
)
from derlint.extensions import WalkContext
from derlint.grammar import parse_certificate
from derlint.matchers import check_aid_match
from derlint.registry import default_registry
from derlint.values import validate_time

from support import certs
from support import encoder as enc
from test_diagnostics import EXPECTED


def report(number: int, name: str, problems: list, detail: str = "") -> None:
    status = "PASS" if not problems else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status}{suffix}", flush=True)
    if problems:
        shown = "; ".join(str(p) for p in problems[:5])
        pytest.fail(f"check {number:02d} {name}: {len(problems)} problem(s): {shown}")


def tree_matches(spec: enc.TreeSpec, node) -> bool:
    if (
        node.tag_class != spec.tag_class
        or node.tag_number != spec.number
        or node.constructed != spec.constructed
    ):
        return False
    if spec.constructed:
        if len(node.children) != len(spec.children):
            return False
        return all(tree_matches(s, c) for s, c in zip(spec.children, node.children))
    return node.content == spec.content


def test_01_tlv_oracle_round_trip_and_length_mutations():
    """10,000 random TLV trees from the independent encoder: every clean
    encoding must reconstruct exactly, and a single corrupted length
    octet must never parse back to the original tree."""
    rng = random.Random(0x5EED01)
    problems = []
    trees = 10_000
    mutants_rejected = 0
    mutants_differing = 0
    started = time.perf_counter()
    for i in range(trees):
        spec = enc.random_tree(rng, depth_budget=4, size_budget=64)
        data, length_positions = enc.encode_spec(spec)
        try:
            node = parse_tlv_tree(data)
        except RecognitionError as exc:
            problems.append(f"tree {i}: clean encoding rejected with {exc.code.value}")
            continue
        if not tree_matches(spec, node):
            problems.append(f"tree {i}: reconstructed tree differs from the source")
            continue

        pos = rng.choice(length_positions)
        replacement = rng.randrange(256)
        while replacement == data[pos]:
            replacement = rng.randrange(256)
        mutated = data[:pos] + bytes([replacement]) + data[pos + 1 :]
        try:
            mutated_node = parse_tlv_tree(mutated)
        except RecognitionError:
            mutants_rejected += 1
            continue
        if tree_matches(spec, mutated_node):
            problems.append(f"tree {i}: corrupted length octet at {pos} parsed silently")
        else:
            mutants_differing += 1
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"ran {elapsed:.2f}s, budget is 10s")
    report(
        1,
        "tlv-oracle-equivalence",
        problems,
        f"{trees} trees, {mutants_rejected} mutants rejected, "
        f"{mutants_differing} parsed differently, {elapsed:.2f}s",
    )


def toy_reference(text: str) -> bool:
    """The language definition, written out directly: two digits, then
    exactly 4*d1 + d2 letters a."""
    if len(text) < 2:
        return False
    d1, d2, rest = text[0], text[1], text[2:]
    if d1 not in "0123" or d2 not in "0123":
        return False
    if any(ch != "a" for ch in rest):
        return False
    return len(rest) == 4 * int(d1) + int(d2)


def test_02_toy_automaton_brute_force():
    """Exhaustive check of every string of length at most 8 over the toy
    alphabet, plus 100,000 random longer strings."""
    problems = []
    alphabet = "0123a"
    checked = 0
    for n in range(0, 9):
        for letters in itertools.product(alphabet, repeat=n):
            text = "".join(letters)
            if recognize_toy(text) != toy_reference(text):
                problems.append(f"disagreement on {text!r}")
            checked += 1
    if checked != 488_281:
        problems.append(f"enumerated {checked} strings, expected 488281")

    rng = random.Random(0x5EED02)
    for _ in range(50_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(9, 41)))
        if recognize_toy(text) != toy_reference(text):
            problems.append(f"disagreement on {text!r}")
    for _ in range(50_000):
        d1, d2 = rng.randrange(2, 4), rng.randrange(0, 4)
        run = 4 * d1 + d2 + rng.choice((-1, 0, 0, 1))
        text = f"{d1}{d2}" + "a" * max(7, run)
        if recognize_toy(text) != toy_reference(text):
            problems.append(f"disagreement on {text!r}")
    report(2, "toy-language-brute-force", problems, f"{checked} exhaustive + 100000 random")


def test_03_length_transition_truth_table():
    """The length transition function, checked value by value."""
    problems = []

    for b in range(0x80):
        if delta_length(Q0, b) != b:
            problems.append(f"short form {b:#04x} did not map to counting state {b}")

    try:
        delta_length(Q0, 0x80)
        problems.append("0x80 was not refused")
    except RecognitionError as exc:
        if exc.code is not Code.LENGTH_BYTE_FORBIDDEN:
            problems.append(f"0x80 raised {exc.code.value}")

    if delta_length(Q0, 0x81) != 1 << 32:
        problems.append("0x81 did not map to the 2**32 marker state")
    for prefix, marker in ((0x81, L1), (0x82, L2), (0x83, L3), (0x84, L4)):
        if delta_length(Q0, prefix) != marker:
            problems.append(f"prefix {prefix:#04x} did not map to its marker state")

    for b in range(0x85, 0x100):
        try:
            delta_length(Q0, b)
            problems.append(f"overlong prefix {b:#04x} was not refused")
        except RecognitionError as exc:
            if exc.code is not Code.LENGTH_TOO_LARGE:
                problems.append(f"prefix {b:#04x} raised {exc.code.value}")

    def run(octets: bytes) -> int:
        state = Q0
        for b in octets:
            state = delta_length(state, b)
        return state

    for v in range(0x80, 0x100):
        if run(bytes((0x81, v))) != v:
            problems.append(f"one-octet long form for {v} decoded wrong")
    for v in range(0x00, 0x80):
        try:
            run(bytes((0x81, v)))
            problems.append(f"non-minimal one-octet form for {v} accepted")
        except RecognitionError as exc:
            if exc.code is not Code.NON_MINIMAL_LENGTH:
                problems.append(f"non-minimal form for {v} raised {exc.code.value}")

    for hi in range(1, 0x100):
        for lo in (0x00, 0x01, 0x7F, 0xFF):
            value = (hi << 8) | lo
            if run(bytes((0x82, hi, lo))) != value:
                problems.append(f"two-octet form for {value} decoded wrong")
    try:
        run(b"\x82\x00\xff")
        problems.append("two-octet form with leading zero accepted")
    except RecognitionError as exc:
        if exc.code is not Code.NON_MINIMAL_LENGTH:
            problems.append(f"leading zero raised {exc.code.value}")

    rng = random.Random(0x5EED03)
    for _ in range(2_000):
        value = rng.randrange(1 << 16, 1 << 24)
        if run(b"\x83" + value.to_bytes(3, "big")) != value:
            problems.append(f"three-octet form for {value} decoded wrong")
        value = rng.randrange(1 << 24, 1 << 32)
        if run(b"\x84" + value.to_bytes(4, "big")) != value:
            problems.append(f"four-octet form for {value} decoded wrong")
    if run(b"\x84\xff\xff\xff\xff") != CONTENT_MAX:
        problems.append("maximum four-octet length decoded wrong")

    if not is_accepting(0):
        problems.append("state 0 does not accept")
    for state in (1, 42, 0x7F, CONTENT_MAX, L1, L2, L3, L4, Q0):
        if is_accepting(state):
            problems.append(f"state {state} wrongly accepts")

    report(3, "length-transition-table", problems)


def test_04_certificate_signing_without_constraints():
    """A certificate whose key may sign other certificates but carries no
    basic constraints must be refused as security-critical; adding the
    critical CA constraint makes the same profile acceptable."""
    problems = []

    attack = parse_certificate(certs.attack_without_bc())
    if attack.accepted:
        problems.append("signing-capable certificate without constraints was accepted")
    hits = [
        d
        for d in attack.diagnostics
        if d.code is Code.KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS
    ]
    if not hits:
        problems.append("KEY_CERT_SIGN_WITHOUT_BASIC_CONSTRAINTS was not reported")
    elif hits[0].severity.value != "security-critical":
        problems.append(f"reported severity was {hits[0].severity.value}")

    proper = parse_certificate(certs.ca_cert_accepted())
    if not proper.accepted:
        problems.append(
            "CA profile with critical basic constraints was rejected: "
            + ", ".join(c.value for c in proper.codes())
        )
    if proper.diagnostics:
        problems.append("CA profile produced stray diagnostics")

    report(4, "signing-key-requires-constraints", problems)


def test_05_planted_defect_catalog():
    """Every fixture certificate triggers exactly its planted code plus
    the documented implied codes, with the frozen severity classes."""
    problems = []
    fixtures = certs.planted_fixtures()
    if len(fixtures) < 25:
        problems.append(f"only {len(fixtures)} fixtures, need at least 25")
    distinct = {f.code for f in fixtures}
    if len(distinct) < 25:
        problems.append(f"only {len(distinct)} distinct planted codes")

    for fixture in fixtures:
        parsed = parse_certificate(fixture.data)
        got = {c.value for c in parsed.codes()}
        wanted = {fixture.code} | set(fixture.implied)
        if got != wanted:
            problems.append(f"{fixture.name}: got {sorted(got)}, wanted {sorted(wanted)}")
            continue
        if parsed.accepted != fixture.accepted:
            problems.append(f"{fixture.name}: acceptance flipped")
        expected_severity, expected_rejects = EXPECTED[fixture.code]
        if Code(fixture.code).severity.value != expected_severity:
            problems.append(f"{fixture.name}: severity drifted from the frozen table")
        for d in parsed.diagnostics:
            table_severity, _ = EXPECTED[d.code.value]
            if d.severity.value != table_severity:
                problems.append(
                    f"{fixture.name}: {d.code.value} reported {d.severity.value}, "
                    f"frozen table says {table_severity}"
                )
        if expected_rejects and parsed.accepted:
            problems.append(f"{fixture.name}: rejecting code but certificate accepted")

    report(5, "planted-defect-catalog", problems, f"{len(fixtures)} fixtures")


def test_06_calendar_leap_year_rules():
    """February 29 exists in 2020, but not in 2022 and not in 2100."""
    problems = []

    def codes_for(validity: bytes) -> tuple[bool, set]:
        parsed = parse_certificate(certs.build(certs.CertSpec(validity=validity)))
        return parsed.accepted, set(parsed.codes())

    accepted, codes = codes_for(certs.validity("220229000000Z", "300101000000Z"))
    if accepted or Code.INVALID_DATE not in codes:
        problems.append("2022-02-29 was not refused as INVALID_DATE")

    accepted, codes = codes_for(certs.validity("200229000000Z", "300101000000Z"))
    if not accepted or codes:
        problems.append(f"2020-02-29 was refused: {sorted(c.value for c in codes)}")

    century = enc.seq(enc.gentime("21000229000000Z"), enc.gentime("21010101000000Z"))
    accepted, codes = codes_for(century)
    if accepted or Code.INVALID_DATE not in codes:
        problems.append("2100-02-29 was not refused as INVALID_DATE")

    for text, ok in (("200229000000Z", True), ("220229000000Z", False)):
        node = parse_tlv_tree(enc.utctime(text))
        try:
            validate_time(node)
            if not ok:
                problems.append(f"validate_time accepted {text}")
        except RecognitionError as exc:
            if ok:
                problems.append(f"validate_time refused {text}")
            elif exc.code is not Code.INVALID_DATE:
                problems.append(f"validate_time raised {exc.code.value} for {text}")

    report(6, "leap-year-calendar", problems)


def test_07_differential_truth_table():
    """All sixteen leaf/parent label combinations over one valid label
    and three distinct error labels."""
    problems = []
    labels = ("VALID", "Ex", "Ey", "Ez")
    tally = {RULE_LEAF_VALID: 0, RULE_CA_SHADOWED: 0, RULE_DISTINCT_ERROR: 0}
    for leaf in labels:
        for parent in labels:
            verdict, rule = classify_differential(leaf, parent)
            tally[rule] += 1
            if leaf == "VALID":
                expected = ("valid", RULE_LEAF_VALID)
            elif leaf == parent:
                expected = ("valid", RULE_CA_SHADOWED)
            else:
                expected = ("invalid", RULE_DISTINCT_ERROR)
            if (verdict, rule) != expected:
                problems.append(f"({leaf}, {parent}) gave ({verdict}, {rule})")
    if tally != {RULE_LEAF_VALID: 4, RULE_CA_SHADOWED: 3, RULE_DISTINCT_ERROR: 9}:
        problems.append(f"rule census was {tally}")
    report(7, "differential-truth-table", problems)


def test_08_algorithm_agreement_perturbations():
    """Byte-identical algorithm identifier copies agree; 1,000 random
    single-byte perturbations of either copy must all be caught."""
    problems = []
    reference = certs.rsa_alg()

    ctx = WalkContext(default_registry())
    if not check_aid_match(reference, bytes(reference), None, ctx):
        problems.append("byte-identical copies reported as differing")
    if ctx.diags:
        problems.append("agreement produced diagnostics")

    rng = random.Random(0x5EED08)
    misses = 0
    for i in range(1_000):
        pos = rng.randrange(len(reference))
        replacement = rng.randrange(256)
        while replacement == reference[pos]:
            replacement = rng.randrange(256)
        twisted = reference[:pos] + bytes([replacement]) + reference[pos + 1 :]
        if rng.random() < 0.5:
            inner, outer = twisted, reference
        else:
            inner, outer = reference, twisted
        ctx = WalkContext(default_registry())
        if check_aid_match(inner, outer, None, ctx):
            misses += 1
            problems.append(f"perturbation {i} at byte {pos} was missed")
            continue
        if not any(d.code is Code.SIGNATURE_ALGORITHM_MISMATCH for d in ctx.diags):
            problems.append(f"perturbation {i} reported no mismatch code")
    report(8, "algorithm-copy-agreement", problems, f"1000 perturbations, {misses} missed")


def test_09_runtime_scales_linearly():
    """Parse time over geometrically growing certificates fits a line, and
    the per-KiB cost stays within a factor of three.  Times are process CPU
    time with the garbage collector off.  The sizes are timed round-robin,
    each round parsing every size once, and each time is taken as its share
    of its round's total: a round lasts tens of milliseconds, so the host's
    speed cancels out of the shares even where it changes between rounds
    (it was seen to swing twofold within one run).  The median share over
    the rounds estimates each size's relative cost; a round that straddles
    a change of speed is an outlier it ignores.  Rounds alternate between
    ascending and descending order: in one direction only, the smallest
    size would always follow the largest and run with cold caches."""
    problems = []

    small = len(certs.scaling_cert(10))
    large = len(certs.scaling_cert(110))
    per_entry = (large - small) / 100.0
    base = small - 10 * per_entry

    documents = []
    for exponent in range(0, 9):
        target = 1024 * (2**exponent)
        entries = max(1, round((target - base) / per_entry))
        data = certs.scaling_cert(entries)
        if parse_certificate(data).accepted:
            documents.append(data)
        else:
            problems.append(f"scaling certificate of {len(data)} bytes rejected")

    sizes = [len(data) for data in documents]
    samples = [[] for _ in documents]
    ascending = list(zip(documents, samples))
    rounds = range(15)
    gc.disable()
    try:
        for round_number in rounds:
            for data, timings in ascending if round_number % 2 == 0 else reversed(ascending):
                t0 = time.process_time_ns()
                parse_certificate(data)
                timings.append(time.process_time_ns() - t0)
    finally:
        gc.enable()
    totals = [sum(timings[r] for timings in samples) for r in rounds]
    shares = [statistics.median(timings[r] / totals[r] for r in rounds) for timings in samples]

    if len(sizes) == 9:
        n = len(sizes)
        mean_x = sum(sizes) / n
        mean_y = sum(shares) / n
        sxx = sum((x - mean_x) ** 2 for x in sizes)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(sizes, shares))
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(sizes, shares))
        ss_tot = sum((y - mean_y) ** 2 for y in shares)
        r_squared = 1.0 - ss_res / ss_tot
        if slope <= 0:
            problems.append(f"fitted slope {slope:.4f} is not positive")
        if r_squared < 0.95:
            problems.append(f"linear fit R^2 = {r_squared:.4f}, need at least 0.95")

        costs = [m / (s / 1024) for s, m in zip(sizes, shares)]
        spread = max(costs) / min(costs)
        if spread > 3.0:
            problems.append(f"per-KiB cost spread {spread:.2f}x exceeds 3x")
        detail = f"R^2 = {r_squared:.4f}, cost spread {spread:.2f}x"
    else:
        detail = ""

    report(9, "runtime-linearity", problems, detail)


# Outcome digest of one pass below.  Any change to a verdict, code or
# offset on these inputs shows up here.
PINNED_FUZZ_DIGEST = "8df4f26efe30dc1f6d598b9355a8171564a0accc23212337ff9cf24b9e503a33"


def test_10_fuzzing_terminates_deterministically():
    """One million random inputs parse to a decision without crashing,
    twice, with identical outcomes both times, matching the pinned digest."""
    problems = []
    inputs = 1_000_000

    def one_pass() -> str:
        rng = random.Random(0x5EED10)
        digest = hashlib.sha256()
        accepted_count = 0
        for i in range(inputs):
            data = rng.randbytes(rng.randrange(0, 4097))
            try:
                parsed = parse_certificate(data)
            except Exception as exc:
                problems.append(f"input {i} ({len(data)} bytes) crashed: {exc!r}")
                digest.update(b"crash")
                continue
            if parsed.accepted:
                accepted_count += 1
                digest.update(b"accept")
            else:
                for d in parsed.diagnostics:
                    digest.update(d.code.value.encode())
                    digest.update(str(d.byte_offset).encode())
        return digest.hexdigest()

    first = one_pass()
    second = one_pass()
    if first != second:
        problems.append("outcome digests differ between runs")
    if first != PINNED_FUZZ_DIGEST:
        problems.append(f"outcome digest {first} differs from the pinned {PINNED_FUZZ_DIGEST}")
    report(10, "fuzzing-determinism", problems, f"{inputs} inputs per run")
