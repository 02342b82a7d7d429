"""tools/same_records.py: the bit-identity check of two perfbench runs."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_records.py"
spec = importlib.util.spec_from_file_location("same_records", TOOL)
same_records = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_records)


def record(index, ll, **extra):
    return {"kind": "replicate", "index": index, "models": {"M1": {"ll": ll}}, **extra}


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def test_same_bits_pass_and_timings_are_ignored(tmp_path, capsys):
    meta = {"kind": "meta", "git_sha": "a"}
    parent = write(tmp_path / "a.jsonl", [meta, record(0, -7414.5, replicate_s=1.8, layers={"x": 1})])
    change = write(
        tmp_path / "b.jsonl",
        [{**meta, "git_sha": "b"}, record(0, -7414.5, replicate_s=2.1, position=3, spans=[])],
    )
    assert same_records.main([parent, change]) == 0
    assert "1 vs 1 replicate records, 0 mismatches" in capsys.readouterr().out


def test_one_ulp_or_a_missing_record_is_a_mismatch(tmp_path, capsys):
    ll = -7414.5766974406015
    parent = write(tmp_path / "a.jsonl", [record(0, ll), record(1, ll)])
    change = write(tmp_path / "b.jsonl", [record(0, math.nextafter(ll, 0.0))])
    assert same_records.main([parent, change]) == 1
    out = capsys.readouterr().out
    assert "replicate record 0 (index 0) differs" in out
    assert "2 vs 1 replicate records, 2 mismatches" in out
