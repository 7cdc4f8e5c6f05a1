"""The benchmark reporting helpers."""

import json
import os

import pytest

from repro.bench.reporting import Table, banner, bench_scale, save_and_print, write_bench_json


def test_table_renders_aligned_columns():
    table = Table(headers=("name", "value"))
    table.add("short", 1)
    table.add("much-longer-name", 2.5)
    text = table.render()
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert "much-longer-name" in lines[3]
    # all rows align on the same column boundary
    assert lines[3].index("2.50") == lines[2].index("1")


def test_table_floats_formatted():
    table = Table(headers=("x",))
    table.add(3.14159)
    assert "3.14" in table.render()
    assert "3.14159" not in table.render()


def test_table_rejects_wrong_arity():
    table = Table(headers=("a", "b"))
    with pytest.raises(ValueError):
        table.add("only-one")


def test_banner():
    text = banner("Title")
    lines = text.strip().splitlines()
    assert lines[1] == "Title"
    assert set(lines[0]) == {"="}


def test_save_and_print_writes_file(capsys, tmp_path, monkeypatch):
    import repro.bench.reporting as reporting

    monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
    path = save_and_print("unit-test-report", "the contents")
    assert capsys.readouterr().out.strip() == "the contents"
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "the contents\n"
    assert os.path.dirname(path) == str(tmp_path)


def test_bench_scale_picks_the_smoke_value_under_the_smoke_flag(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    assert bench_scale(full=100, smoke=10) == 10
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "")
    assert bench_scale(full=100, smoke=10) == 100


def test_write_bench_json_merges_sections(tmp_path, monkeypatch):
    import repro.bench.reporting as reporting

    monkeypatch.setattr(reporting, "REPO_ROOT", str(tmp_path))
    write_bench_json("unit", "a", {"x": 1})
    path = write_bench_json("unit", "b", {"y": 2})
    assert path == os.path.join(str(tmp_path), "BENCH_unit.json")
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == {"a": {"x": 1}, "b": {"y": 2}}
