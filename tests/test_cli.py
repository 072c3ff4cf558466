import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from dyadictop import DyadicSubbase
from dyadictop.cli import MAX_LEVELS, _json_text, main
from dyadictop.corpus import (CORPUS, converging_sequence_space, interval_points_space,
                              interval_sequence_space, interval_space)
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


def test_check_subbase_refuses_depth_out_of_range(capsys):
    code = main(["check", str(DATA / "bad_subbase.json"), "--depth", "99"])
    assert code == 1
    err = capsys.readouterr().err
    assert "depth-out-of-range" in err
    assert '"depth":99' in err


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


def test_two_builds_of_one_file_write_the_same_bytes(tmp_path, capsys):
    # the second run loads a space equal to the first, so it meets the
    # caches the first run filled
    space = tmp_path / "space.json"
    space.write_text(json.dumps(interval_sequence_space().to_dict()))
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        assert main(["build", str(space), "--levels", "3", "--depth", "3",
                     "--format", "json", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_out_over_a_longer_file_leaves_the_new_bytes(space_file, tmp_path, capsys):
    argv = ["build", space_file, "--levels", "2", "--depth", "3", "--format", "json"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode("utf-8")
    target = tmp_path / "build.json"
    target.write_bytes(b"x" * (3 * len(want)))
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == want
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_out_to_the_null_device(space_file, capsys):
    # not a regular file: written, but never cut to length
    assert main(["kernel", space_file, "--format", "json", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


# -- the JSON writer --------------------------------------------------------

_json_strings = st.text() | st.sampled_from(
    ("", "⊥", "⊥01_", 'say "so"', "back\\slash", "\x00\x1f\x7f", "tab\tnew\nline",
     "\u2028\ud800", "ü日本\U0001f600"))
_json_scalars = (_json_strings | st.integers() | st.integers(-2 ** 70, -2 ** 64)
                 | st.integers(2 ** 64, 2 ** 70) | st.booleans() | st.none() | st.floats())
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_json_strings, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2 ** 64, -2 ** 70])
@example({"⊥": [], "a": {}, "b": (), "": {"": ""}, "c": [[]], "d": [{}, ()]})
def test_json_writer_writes_what_json_dumps_writes(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 3), [1, Fraction(1, 3)], {"a": {"b": (Fraction(1),)}}, {1, 2}, b"bytes",
])
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as ours:
        _json_text(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
def test_json_writer_takes_only_string_keys(key):
    with pytest.raises(TypeError, match="must be a string"):
        _json_text({"a": [{key: 0}]})


@pytest.mark.parametrize("mode,levels,depth", golden.RUNS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_build_out_writes_the_golden_bytes(tmp_path, capsys, name, mode, levels, depth):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(CORPUS[name]().to_dict()))
    out = tmp_path / "build.json"
    assert main(["build", str(space), "--levels", str(levels), "--depth", str(depth),
                 "--degree-mode", mode, "--emit-trace", "--format", "json",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == golden.path(name, mode, levels).read_bytes()
    assert capsys.readouterr() == ("", "")


def test_out_into_a_missing_directory_fails(space_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert main(["kernel", space_file, "--out", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


def test_out_through_a_symlink_writes_its_target(space_file, tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("old contents, longer than the new ones\n" * 10)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["kernel", space_file, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == "kernel: [0,1]; scattered: 2@1, 3@1; rank 1\n"


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _python(script, *args):
    """A new interpreter running ``script`` on the library under test."""
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def _fresh(argv):
    """Exit code, stdout and stderr of ``main(argv)`` in a new interpreter."""
    run = _python("import sys; from dyadictop.cli import main; sys.exit(main(sys.argv[1:]))",
                  *argv)
    return run.returncode, run.stdout, run.stderr


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("first,second", [
    (["--format", "json", "--emit-trace"], ["--format", "json"]),
    (["--format", "json"], ["--format", "text"]),
    (["--levels", "two"], []),
])
def test_calls_in_one_process_keep_no_state(space_file, capsys, first, second):
    # a call answers as a new process would, whatever call came before
    base = ["build", space_file, "--levels", "2", "--depth", "3"]
    runs = [_in_process(base + first, capsys), _in_process(base + second, capsys)]
    assert runs == [_fresh(base + first), _fresh(base + second)]
    if "--emit-trace" in first:
        assert "traces" in json.loads(runs[0][1])
        assert "traces" not in json.loads(runs[1][1])
    if "two" in first:
        assert runs[0][0] == 2 and runs[1][0] == 0


def test_parser_is_built_once_and_not_at_import(space_file):
    # argparse builds the top parser and one per subcommand
    script = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from dyadictop import cli
counts = [len(built)]
for _ in range(3):
    cli.main(["kernel", sys.argv[1]])
    counts.append(len(built))
print(*counts)
"""
    run = _python(script, space_file)
    counts = [int(c) for c in run.stdout.split()[-4:]]
    assert counts == [0, 7, 7, 7], run.stdout + run.stderr


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
    for levels in (str(MAX_LEVELS + 1), "40"):
        assert main(["build", space_file, "--levels", levels]) == 1
        assert "levels-out-of-range" in capsys.readouterr().err


def test_failed_construction_prints_details(space_file, capsys):
    assert main(["build", space_file, "--levels", "40"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: construction failed at level -1: levels-out-of-range",
        f'details: {{"levels":40,"max":{MAX_LEVELS}}}',
    ]


def test_match_dim_at_level_zero_is_refused(space_file, tmp_path, capsys):
    # a space with a kernel needs a window pair for degree 1; one without
    # a kernel still builds at level 0
    assert main(["build", space_file, "--levels", "0", "--degree-mode", "match_dim"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: construction failed at level -1: match-dim-without-levels"]
    assert main(["build", space_file, "--levels", "0"]) == 0
    path = tmp_path / "sequence.json"
    path.write_text(json.dumps(converging_sequence_space().to_dict()))
    assert main(["build", str(path), "--levels", "0", "--degree-mode", "match_dim"]) == 0


@pytest.mark.parametrize("epsilon", ["0", "-1/2"])
def test_epsilon_limit(space_file, capsys, epsilon):
    # an empty resolution ball is refused before the build runs
    assert main(["build", space_file, f"--epsilon={epsilon}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: construction failed at level -1: epsilon-out-of-range",
        f'details: {{"epsilon":"{epsilon}"}}',
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
    _one_pair(SEQ, {"tails": [{"sequence": 0, "start": 0}]}),
    _one_pair(SEQ, {"tails": [{"sequence": 0, "exceptions": [-5, 0]}]}),
    *({"primitives": [{"kind": "sequence", "limit": "0", "offset": "1",
                       "open_limit": flag}]} for flag in ("false", 1, None)),
])
def test_malformed_json_is_refused(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--depth", "1"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("literal,message", [
    ("[1/2,1/4]", "bad span bounds [1/2,1/4]"),
    ("[a,1/1]", "expected p/q form, got 'a'"),
])
def test_bad_interval_literal_names_its_pair_entry(tmp_path, capsys, literal, message):
    # an end that is not p/q and ends in the wrong order are worded alike
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_one_pair(UNIT, {"intervals": [literal]})))
    assert main(["check", str(path), "--depth", "1"]) == 1
    assert capsys.readouterr().err == f"error: bad pair entry: {message}\n"


@pytest.mark.parametrize("key", ["zero", "one"])
def test_pair_entry_without_a_side_names_the_key(tmp_path, capsys, key):
    data = _one_pair(UNIT, {"intervals": ["[0/1,1/2)"]})
    del data["pairs"][0][key]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--depth", "1"]) == 1
    assert capsys.readouterr().err == f"error: pair entry needs '{key}'\n"


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
