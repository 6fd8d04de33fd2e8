"""The tolerant JSONL reader: ``read_jsonl(..., recover=True)``.

The recovery contract backs the fleet merge path: a torn *final* line —
the only damage a mid-append kill can produce under the append+fsync
write discipline — is reported, not raised, and the readable prefix is
still returned; damage anywhere else stays fatal.
"""

import json
import re

import pytest

from repro.backends import SerialBackend, jobs_for
from repro.records import JsonlCorruption, read_jsonl, write_jsonl
from repro.specs import AdversarySpec


@pytest.fixture()
def written(tmp_path):
    specs = [AdversarySpec("two-process", {"index": i}) for i in range(4)]
    jobs = jobs_for(specs, max_depth=4, tags={"family": "two-process"})
    records = SerialBackend(record_timing=False).run(jobs)
    path = tmp_path / "records.jsonl"
    write_jsonl(records, path)
    return path, records


def test_clean_file_has_no_corruption(written):
    path, records = written
    recovered, corruption = read_jsonl(path, recover=True)
    assert corruption is None
    assert [r.index for r in recovered] == [r.index for r in records]
    assert [r.to_dict() for r in recovered] == [r.to_dict() for r in records]


def test_torn_final_line_is_reported_not_raised(written):
    path, records = written
    torn = path.read_bytes()[:-9]
    path.write_bytes(torn)
    recovered, corruption = read_jsonl(path, recover=True)
    assert [r.index for r in recovered] == [r.index for r in records[:-1]]
    assert isinstance(corruption, JsonlCorruption)
    assert corruption.line_number == len(records) + 1  # header + records
    assert "truncated trailing line" in corruption.reason
    assert corruption.fragment  # leading bytes kept for the report
    assert set(corruption.to_dict()) == {
        "path",
        "line_number",
        "reason",
        "fragment",
    }
    # The default strict reader still raises on the same file.
    with pytest.raises(json.JSONDecodeError):
        list(read_jsonl(path))


def test_mid_file_corruption_still_raises(written):
    path, _ = written
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2][:20]  # damage a record that is not the tail
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        read_jsonl(path, recover=True)


def test_trailing_record_missing_field_is_recoverable(written):
    path, records = written
    lines = path.read_text(encoding="utf-8").splitlines()
    damaged = json.loads(lines[-1])
    del damaged["status"]
    lines[-1] = json.dumps(damaged, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    recovered, corruption = read_jsonl(path, recover=True)
    assert len(recovered) == len(records) - 1
    assert corruption is not None
    assert "missing field" in corruption.reason


def test_recover_reads_headerless_v1_files(written, tmp_path):
    path, records = written
    v1 = tmp_path / "v1.jsonl"
    body = path.read_text(encoding="utf-8").splitlines()[1:]  # drop header
    v1.write_text("\n".join(body) + "\n", encoding="utf-8")
    recovered, corruption = read_jsonl(v1, recover=True)
    assert corruption is None
    assert [r.index for r in recovered] == [r.index for r in records]


def _rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _retyped(line, field, value):
    """A record line with one version-1 field set to ``value``."""
    return json.dumps(dict(json.loads(line), **{field: value}), sort_keys=True)


#: Files whose line ``number`` is not a record: (lines, number).  The
#: header and records come from the ``written`` fixture.  A field of the
#: wrong type fails anywhere, the tail included: a torn write leaves an
#: undecodable line, never a well-formed one of the wrong type.
NOT_RECORDS = {
    "first-line-array": (lambda h, r: ["[1, 2]", *r], 1),
    "middle-string": (lambda h, r: [h, r[0], '"text"', *r[1:]], 3),
    "final-number": (lambda h, r: [h, *r, "3"], 6),
    "headerless-missing-fields": (lambda h, r: ['{"index": 0}', *r], 1),
    "final-max-depth-text": (lambda h, r: [h, *r[:-1], _retyped(r[-1], "max_depth", "deep")], 5),
    "middle-index-bool": (lambda h, r: [h, r[0], _retyped(r[1], "index", True), *r[2:]], 3),
    "certified-depth-float": (lambda h, r: [h, _retyped(r[0], "certified_depth", 1.5), *r[1:]], 2),
    "status-null": (lambda h, r: [h, *r[:2], _retyped(r[2], "status", None), r[3]], 4),
    "headerless-elapsed-text": (lambda h, r: [_retyped(r[0], "elapsed_s", "0.1"), *r[1:]], 1),
}


@pytest.mark.parametrize("recover", [False, True], ids=["lazy", "recover"])
@pytest.mark.parametrize("case", sorted(NOT_RECORDS))
def test_non_record_line_raises_value_error_naming_it(written, case, recover):
    path, _ = written
    header, *records = path.read_text(encoding="utf-8").splitlines()
    build, number = NOT_RECORDS[case]
    _rewrite(path, build(header, records))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{number}: ") as info:
        if recover:
            read_jsonl(path, recover=True)
        else:
            list(read_jsonl(path))
    assert not isinstance(info.value, json.JSONDecodeError)


def test_lone_field_less_line_is_a_torn_tail_only_when_recovering(tmp_path):
    path = tmp_path / "one.jsonl"
    _rewrite(path, ['{"index": 0}'])
    with pytest.raises(ValueError, match="missing field 'adversary'"):
        list(read_jsonl(path))
    records, corruption = read_jsonl(path, recover=True)
    assert records == []
    assert corruption.line_number == 1
    assert "missing field" in corruption.reason


#: A well-formed version-1 (headerless) record line's fields.
V1_RECORD = {
    "index": 0, "adversary": "x", "n": 2, "alphabet": 1, "max_depth": 4,
    "status": "undecided", "certified_depth": None, "certificate": "undecided@4",
    "elapsed_s": 0, "views_interned": 0, "shard": 0,
}


def test_version_one_field_types_accept_ints_floats_and_null(tmp_path):
    path = tmp_path / "v1.jsonl"
    lines = [dict(V1_RECORD), dict(V1_RECORD, index=1, elapsed_s=0.25, certified_depth=2)]
    _rewrite(path, [json.dumps(line) for line in lines])
    records = list(read_jsonl(path))
    assert [(r.elapsed_s, r.certified_depth) for r in records] == [(0, None), (0.25, 2)]
    assert read_jsonl(path, recover=True)[1] is None


CLI_COMMANDS = pytest.mark.parametrize(
    "command",
    [["report", "{}"], ["report", "{}", "--json"], ["sweep", "--retry", "{}"]],
    ids=["report", "report-json", "sweep-retry"],
)


@CLI_COMMANDS
@pytest.mark.parametrize(
    "line",
    ["[1, 2]", '{"index": 0', '{"index": 0}', json.dumps(dict(V1_RECORD, max_depth="deep"))],
    ids=["array", "torn", "field-less", "wrong-type"],
)
def test_cli_reports_a_bad_records_file_in_one_line(tmp_path, capsys, command, line):
    from repro.cli import main

    path = tmp_path / "bad.jsonl"
    _rewrite(path, [line])
    assert main([word.format(path) for word in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [message] = captured.err.splitlines()
    assert message.startswith(f"error: {path}:1: ")


@CLI_COMMANDS
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_cli_reports_an_unreadable_records_path_in_one_line(tmp_path, capsys, command, target):
    from repro.cli import main

    path = tmp_path / "records.jsonl"
    if target == "directory":
        path.mkdir()
    assert main([word.format(path) for word in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [message] = captured.err.splitlines()
    assert message.startswith("error: ") and str(path) in message
