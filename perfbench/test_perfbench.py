"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench -q

Each test plants a wrong expectation, or a wrong output, and requires the
check behind failed_share to count it.
"""

import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402

checkout.prepare()

import corpus  # noqa: E402
import derlint  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402


def _loop(docs, options=None):
    tally = measure.Tally()
    measure.lint_loop(docs, options or derlint.LintOptions(), len(docs), time.perf_counter(), tally, None, measure.LoopResult())
    return tally


def test_generated_expectations_hold():
    docs = corpus.typical_docs(random.Random(5), 60) + corpus.large_san_docs(random.Random(5), 2)
    tally = _loop(docs)
    assert (tally.attempted, tally.failed) == (62, 0), tally.problems
    rejects = corpus.reject_docs(random.Random(5), 200)
    tally = _loop(rejects, derlint.LintOptions(fmt="der"))
    assert (tally.attempted, tally.failed) == (200, 0), tally.problems


def test_wrong_verdict_or_code_set_is_a_failure():
    good = corpus.typical_docs(random.Random(6), 1)[0]
    assert good.verdict == corpus.ACCEPTED
    wrong = [
        replace(good, doc_id="wrong-verdict", verdict=corpus.REJECTED),
        replace(good, doc_id="wrong-codes", codes=frozenset({"TRAILING_BYTES"})),
        good,
    ]
    tally = _loop(wrong)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert [p.split(":")[0] for p in tally.problems] == ["wrong-verdict", "wrong-codes"]


def test_wrong_differential_expectation_is_a_failure():
    rng = random.Random(7)
    docs = corpus.typical_docs(rng, 30)
    table = corpus.outcome_table(rng, docs)
    rejecting = {d.doc_id: sorted(d.rejecting_codes) for d in docs}
    analysis = derlint.analyze(derlint.read_records(table.csv_text))
    as_json = analysis.to_json_dict()
    crosstab = derlint.cross_tabulate(analysis.verdicts, rejecting).to_json_dict()

    tally = measure.Tally()
    measure.check_analysis(table, as_json["verdicts"], as_json["missing_parent_chains"], crosstab, tally)
    assert tally.failed == 0, tally.problems

    key = next(iter(table.verdicts))
    verdict, rule, leaf, parent = table.verdicts[key]
    table.verdicts[key] = ("invalid" if verdict == "valid" else "valid", rule, leaf, parent)
    table.agreements += 1
    tally = measure.Tally()
    measure.check_analysis(table, as_json["verdicts"], as_json["missing_parent_chains"], crosstab, tally)
    assert tally.failed == 2

    tally = measure.Tally()
    measure.check_analysis(table, as_json["verdicts"][1:], as_json["missing_parent_chains"], crosstab, tally)
    assert "not accounted for" in " ".join(tally.problems)


def test_batch_output_checks_count_missing_duplicate_and_exit_status():
    docs = corpus.typical_docs(random.Random(8), 3, prefix="f")
    by_id = {d.doc_id: d for d in docs}
    lines = []
    for d in docs:
        report = derlint.lint_bytes(d.data, d.doc_id)
        lines.append(json.dumps(report.to_json_dict()))
    rejected = sum(d.verdict == corpus.REJECTED for d in docs)
    summary = json.dumps({"summary": {"total": 3, "accepted": 3 - rejected, "rejected": rejected, "counts": {}}})
    right_exit = 1 if rejected else 0

    tally = measure.Tally()
    assert len(measure.check_lint_output(by_id, "\n".join(lines + [summary]), right_exit, tally)) == 3
    assert tally.failed == 0, tally.problems

    tally = measure.Tally()
    measure.check_lint_output(by_id, "\n".join(lines[:2] + lines[:1] + [summary]), 1 - right_exit, tally)
    # one duplicate, one missing report, one wrong exit status
    assert tally.failed == 3, tally.problems


def test_tracer_restores_every_wrapped_name():
    before = {(path, attr): getattr(tracing._resolve(path), attr) for path, attr, _ in tracing.TARGETS if not path.endswith(".json")}
    import derlint.cli

    json_module = derlint.cli.json
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.missing == []
    derlint.lint_bytes(corpus.typical_docs(random.Random(9), 1)[0].data)
    tracer.uninstall()
    after = {key: getattr(tracing._resolve(key[0]), key[1]) for key in before}
    assert after == before
    assert derlint.cli.json is json_module
    assert tracer.calls["der"] >= 1 and tracer.nodes > 0
