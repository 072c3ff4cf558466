import json
import pathlib
import time

import pytest

from dyadictop import DyadicSubbase
from dyadictop.cli import main
from dyadictop.corpus import (converging_sequence_space, interval_points_space,
                              interval_space)
from dyadictop.sets import MAX_TAIL_INDEX

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(interval_points_space().to_dict()))
    return str(path)


@pytest.fixture
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(interval_space().to_dict()))
    return str(path)


def test_kernel_command(space_file, capsys):
    assert main(["kernel", space_file]) == 0
    out = capsys.readouterr().out
    assert out == "kernel: [0,1]; scattered: 2@1, 3@1; rank 1\n"


def test_build_passes(space_file, capsys):
    assert main(["build", space_file, "--levels", "2", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("PASS")
    assert "pairs: 4 (2 window + 2 clopen)" in out


def test_build_json_roundtrips(space_file, capsys):
    args = ["build", space_file, "--levels", "2", "--depth", "3",
            "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    sb = DyadicSubbase.from_dict(json.loads(first))
    assert len(sb) == 4


def test_check_rejects_broken_subbase(capsys):
    code = main(["check", str(DATA / "bad_subbase.json"), "--depth", "2"])
    assert code == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert 'word=00' in out


def test_check_space_passes(space_file, capsys):
    assert main(["check", space_file, "--levels", "2", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("PASS")


def test_encode_text(interval_file, capsys):
    code = main(["encode", interval_file, "--levels", "2", "--depth", "3",
                 "--points", "1/3,1/8"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("1/3 ")
    assert "⊥" in lines[0]


def test_decode_json(interval_file, capsys):
    code = main(["decode", interval_file, "--levels", "2", "--depth", "3",
                 "--word", "0", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["empty"] is False
    assert payload["word"].startswith("0")


def test_out_writes_file(space_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["kernel", space_file, "--format", "json",
                 "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["rank"] == 1


def test_missing_file_fails(capsys):
    assert main(["kernel", "/no/such/file.json"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_garbage_json_fails(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["kernel", str(path)]) == 1
    assert "bad JSON" in capsys.readouterr().err


def test_wrong_shape_fails(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"something": 1}))
    assert main(["kernel", str(path)]) == 1
    assert "primitives" in capsys.readouterr().err


def test_levels_limit(space_file, capsys):
    assert main(["build", space_file, "--levels", "40"]) == 1
    assert "levels-out-of-range" in capsys.readouterr().err


def test_failed_construction_prints_details(space_file, capsys):
    assert main(["build", space_file, "--levels", "40"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: construction failed at level -1: levels-out-of-range",
        'details: {"levels":40,"max":12}',
    ]


SUMMARY_HEAD = """space: [0,1]
kernel: [0,1]; rank 0
pairs: 2 (2 window + 0 clopen)
"""
SUMMARY_TAIL = """pass dyadic (depth 2)
pass proper (depth 2)
pass independent (depth 2)
pass degree (depth 2)
pass resolution (depth 2)
PASS
"""


def test_build_and_report_text(interval_file, capsys):
    assert main(["build", interval_file, "--levels", "2", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        SUMMARY_HEAD + "epsilon: 2123929/2097152\n" + SUMMARY_TAIL)
    assert main(["report", interval_file, "--levels", "2", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        SUMMARY_HEAD + "degree mode: unconstrained\n" "epsilon: 2123929/2097152\n"
        "probe seed: 0\n" + SUMMARY_TAIL)


def test_depth_limit(space_file, capsys):
    assert main(["check", space_file, "--depth", "99"]) == 1
    assert "depth-out-of-range" in capsys.readouterr().err


UNIT = interval_space().to_dict()
SEQ = converging_sequence_space().to_dict()


def _one_pair(space, zero):
    return {"space": space, "pairs": [{"zero": zero, "one": {}}]}


@pytest.mark.parametrize("data", [
    {"primitives": [{"kind": "interval", "lo": "0"}]},
    {"primitives": [3]},
    {"primitives": {"kind": "interval"}},
    {"space": UNIT, "pairs": 3},
    {"space": UNIT, "pairs": [7]},
    _one_pair(UNIT, {"intervals": [5]}),
    _one_pair(SEQ, {"tails": [3]}),
    _one_pair(SEQ, {"tails": {"sequence": 0}}),
    _one_pair(SEQ, {"tails": [{"sequence": 0, "start": "3"}]}),
    _one_pair(SEQ, {"tails": [{"sequence": 0, "start": True}]}),
    _one_pair(SEQ, {"tails": [{"sequence": 0, "exceptions": 2}]}),
    _one_pair(SEQ, {"tails": [{"sequence": 0, "exceptions": [1.5]}]}),
])
def test_malformed_json_is_refused(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--depth", "1"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("error:")
    assert "Traceback" not in err


def test_tail_index_above_bound_is_refused_at_once(tmp_path, capsys):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(_one_pair(SEQ, {"tails": [{"sequence": 0,
                                                          "start": 100000000}]})))
    started = time.perf_counter()
    assert main(["check", str(path), "--depth", "1"]) == 1
    assert time.perf_counter() - started < 1
    assert f"MAX_TAIL_INDEX = {MAX_TAIL_INDEX}" in capsys.readouterr().err
    path.write_text(json.dumps(_one_pair(SEQ, {"tails": [{"sequence": 0,
                                                          "exceptions": [MAX_TAIL_INDEX + 1]}]})))
    assert main(["check", str(path), "--depth", "1"]) == 1
    assert f"MAX_TAIL_INDEX = {MAX_TAIL_INDEX}" in capsys.readouterr().err
