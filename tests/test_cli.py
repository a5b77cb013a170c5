import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import shiftk
from helpers import (
    DEAD_LETTER_FORMS,
    GOLDEN_FORMS,
    dense_level_matrices,
    forbidden_words,
    inflated_forms,
    memory1_forms,
    periodic_orbit,
    random_essential_adjacency,
    random_memory_sft,
    random_presentation,
    sparse_adjacency,
)
from shiftk import (
    ResourceCapError,
    ValidationError,
    build_chain,
    cli,
    compare_triples,
    dimension_triple,
    intlinalg,
    invariants,
    k_groups,
    model,
    parse_presentation,
    partitions,
    presentations,
)
from shiftk.cli import main

from conftest import CORPUS_OBJECTS


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name in ("golden_mean", "full2", "full3", "pair", "single_point"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(CORPUS_OBJECTS[name]))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


# stable at level 1; every context has predecessor words of every length
SIX_VERTEX_SFT = {"type": "sft_matrix", "adjacency": [
    [1, 0, 0, 0, 0, 0], [1, 0, 0, 1, 1, 1], [0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0], [1, 1, 1, 1, 0, 0]]}


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariants_table(files, capsys):
    code, out, _ = run(capsys, "invariants", files["golden_mean"], "--no-cache")
    assert code == 0
    assert "K0: 0" in out and "K1: 0" in out
    assert "stable at level 1" in out


def test_invariants_json_and_determinism(files, capsys):
    code, out1, _ = run(capsys, "invariants", files["full3"], "--no-cache", "--format", "json")
    assert code == 0
    record = json.loads(out1)
    assert record["k0"] == {"free_rank": 0, "torsion": [2]}
    assert record["k0_text"] == "Z/2"
    code, out2, _ = run(capsys, "invariants", files["full3"], "--no-cache", "--format", "json")
    assert out1 == out2


def test_invariants_cache_soundness(files, capsys, tmp_path):
    cache = str(tmp_path / "cache")
    code, fresh, _ = run(capsys, "invariants", files["golden_mean"],
                         "--cache-dir", cache, "--format", "json")
    assert code == 0
    cached_files = list((tmp_path / "cache").glob("*.json"))
    assert len(cached_files) == 1
    code, hit, _ = run(capsys, "invariants", files["golden_mean"],
                       "--cache-dir", cache, "--format", "json")
    assert code == 0 and hit == fresh
    code, nocache, _ = run(capsys, "invariants", files["golden_mean"], "--no-cache",
                           "--format", "json")
    assert nocache == fresh


def test_invariants_render_the_canonical_bytes_once(files, capsys, tmp_path, monkeypatch):
    # one rendering gives both the cache key and the record's presentation hash
    cache = tmp_path / "cache"
    for i, name in enumerate(("golden_mean", "full2", "pair", "single_point")):
        cls = type(parse_presentation(CORPUS_OBJECTS[name]))
        calls = []
        to_json = cls.to_json
        monkeypatch.setattr(cls, "to_json", lambda p: calls.append(1) or to_json(p))
        for expect in ("cold", "hit"):
            calls.clear()
            assert run(capsys, "invariants", files[name], "--cache-dir", str(cache))[0] == 0
            assert (len(calls), len(list(cache.iterdir()))) == (1, i + 1), (name, expect)
        monkeypatch.undo()


def test_invariants_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type":')
    code, _, err = run(capsys, "invariants", str(bad))
    assert code == 2
    assert "line" in err


def test_a_file_that_is_not_utf8_is_bad_input(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    message = f"error: {bad}: not UTF-8: invalid start byte at byte 0\n"
    assert run(capsys, "kgroups", str(bad)) == (2, "", message)
    assert run(capsys, "invariants", str(bad), "--no-cache") == (2, "", message)
    assert run(capsys, "compare", files["full2"], str(bad)) == (3, "", message)


DEEP = "[" * 100000 + "]" * 100000   # valid JSON nested past the recursion limit


def test_a_file_nested_too_deeply_is_bad_input(files, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    message = f"error: {deep}: JSON nested too deeply\n"
    assert run(capsys, "kgroups", str(deep)) == (2, "", message)
    assert run(capsys, "model", "verify", str(deep)) == (2, "", message)
    assert run(capsys, "compare", files["full2"], str(deep)) == (3, "", message)


# an integer literal of 5000 digits, past the interpreter's int conversion limit
LONG_INT = "1" * 5000
LONG_INT_REASON = ("Exceeds the limit (4300 digits) for integer string conversion: "
                   "value has 5000 digits")


def test_a_file_with_an_over_long_integer_is_bad_input(files, tmp_path, capsys):
    long = tmp_path / "long.json"
    long.write_text('{"type": "sft_matrix", "adjacency": [[' + LONG_INT + "]]}")
    message = f"error: {long}: {LONG_INT_REASON}\n"
    assert run(capsys, "kgroups", str(long)) == (2, "", message)
    assert run(capsys, "invariants", str(long), "--no-cache") == (2, "", message)
    assert run(capsys, "compare", files["full2"], str(long)) == (3, "", message)


def test_a_move_descriptor_with_an_over_long_integer_is_refused(files, capsys):
    out = files["dir"] / "never-written.json"
    descriptor = '{"move": "higher_block", "n": ' + LONG_INT + "}"
    assert run(capsys, "transform", files["full2"], descriptor, str(out)) == (
        2, "", f"error: move descriptor: {LONG_INT_REASON}\n")
    assert not out.exists()


def test_invariants_at_short_lmax_read_the_stable_level(files, capsys, monkeypatch):
    # golden_mean stabilizes at level 1: lmax 1 shows levels 0..1 only, and
    # the limit invariants are still read at the stable level
    monkeypatch.setenv("SHIFTK_LMAX", "1")
    code, out, _ = run(capsys, "invariants", files["golden_mean"], "--no-cache")
    assert code == 0
    assert "m-sequence: 1 2\n" in out
    assert "stabilization: stable at level 1 (verified through 2)" in out
    assert "K0: 0" in out and "K1: 0" in out and "triple rank: 2" in out


def test_classes_output(files, capsys):
    code, out, _ = run(capsys, "classes", files["pair"], "--lmax", "3")
    assert code == 0
    assert "m-sequence: 1 2 2 2" in out
    assert "[-]" in out and "[+]" in out      # the delta-kill marker column


def test_classes_json_holds_each_signature_once(tmp_path, capsys, monkeypatch):
    # the six-vertex SFT is stable at level 1; past the grades whose words are
    # listed, more levels add only elided ranks and class names
    monkeypatch.setattr(partitions, "SIGNATURE_WORD_LIMIT", 4000)
    path = tmp_path / "six.json"
    path.write_text(json.dumps(SIX_VERTEX_SFT))
    sizes = []
    for lmax in ("20", "40"):
        code, out, _ = run(capsys, "classes", str(path), "--format", "json", "--lmax", lmax)
        assert code == 0
        sizes.append(len(out))
    assert sizes[1] <= 1.1 * sizes[0]


def test_classes_json_lists_the_m_sets_up_to_where_they_stop_changing(tmp_path, capsys,
                                                                     monkeypatch):
    # the six-vertex SFT is stable at level 1 and every context has predecessor
    # words of every length, so the M-sets are listed for levels 0 and 1 only
    monkeypatch.setattr(partitions, "SIGNATURE_WORD_LIMIT", 50)   # words the M-sets never read
    path = tmp_path / "six.json"
    path.write_text(json.dumps(SIX_VERTEX_SFT))
    m_sets = []
    for lmax in ("40", "200"):
        code, out, _ = run(capsys, "classes", str(path), "--format", "json", "--lmax", lmax)
        assert code == 0
        m_sets.append(json.dumps(json.loads(out)["m_sets"], indent=2))
    assert m_sets[0] == m_sets[1] and len(json.loads(m_sets[0])) == 2


def test_matrices_output(files, capsys):
    # one line per class of level l+1: its parent, then each symbol and the
    # class it lands in
    code, out, _ = run(capsys, "matrices", files["golden_mean"], "--lmax", "2")
    assert code == 0
    assert out.splitlines()[:3] == ["level 1 -> 0: 2 classes into 1",
                                    "  class 0 in 0: 0->0", "  class 1 in 0: 0->0 1->0"]
    code, out, _ = run(capsys, "matrices", files["pair"], "--lmax", "2")
    assert code == 0 and "  class 0 in 0:\n" in out     # no symbol prepends to 1(0)*


def test_matrices_json_rebuilds_the_dense_matrices(tmp_path, capsys):
    # the inclusion, per-symbol action, action sum and difference matrices
    # rebuilt from the class maps equal the dense ones pinned for the corpus
    pinned = json.loads((Path(__file__).parent / "data" / "matrices_dense_lmax3.json").read_text())
    assert pinned.keys() == CORPUS_OBJECTS.keys()
    for name, obj in CORPUS_OBJECTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "matrices", str(path), "--format", "json", "--lmax", "3")
        assert code == 0
        data = json.loads(out)
        symbols = parse_presentation(obj).alphabet.symbols
        assert data["presentation"] == pinned[name]["presentation"], name
        assert [dense_level_matrices(lv, symbols) for lv in data["matrices"]] == \
            pinned[name]["matrices"], name


def test_matrices_json_grows_with_the_edges(tmp_path, capsys):
    # a sparse 64-vertex SFT, 5 edges per vertex: the dense export wrote 4.4 MB
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"type": "sft_matrix",
                                "adjacency": sparse_adjacency(random.Random(3), 64, 4)}))
    code, out, _ = run(capsys, "matrices", str(path), "--format", "json", "--lmax", "2")
    assert code == 0 and len(out) < 200_000


@pytest.mark.parametrize("command", ["classes", "matrices", "triple"])
def test_tables_are_pinned_byte_for_byte(tmp_path, capsys, monkeypatch, command):
    # each table is a rendering of its --format json payload, and its bytes
    # are pinned line by line
    data = Path(__file__).parent / "data"
    pinned = json.loads((data / "tables_lmax3.json").read_text())
    lmax = () if command == "triple" else ("--lmax", "3")   # the triple is limit data
    for name in ("golden_mean", "pair", "even"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(CORPUS_OBJECTS[name]))
        assert run(capsys, command, str(path), *lmax) == (
            0, "\n".join(pinned[f"{command} {name}"]) + "\n", "")
    if command == "classes":
        # grades past the word limit show their rank, past the stable level too
        pinned = json.loads((data / "tables_elided_lmax6.json").read_text())
        monkeypatch.setattr(partitions, "SIGNATURE_WORD_LIMIT", 2)
        for name in ("full2", "golden_mean"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(CORPUS_OBJECTS[name]))
            assert run(capsys, command, str(path), "--lmax", "6") == (
                0, "\n".join(pinned[f"classes {name}"]) + "\n", "")


def test_transform_outputs_are_pinned_byte_for_byte(tmp_path, capsys, monkeypatch):
    # each move on every corpus file that accepts it: the stdout of both
    # formats and every written file
    pinned = json.loads((Path(__file__).parent / "data" / "transform_moves.json").read_text())
    assert {json.loads(case["move"])["move"] for case in pinned} == {
        "higher_block", "expand", "split"}
    monkeypatch.chdir(tmp_path)
    source = tmp_path / "in.json"
    for case in pinned:
        source.write_text(json.dumps(CORPUS_OBJECTS[case["file"]]))
        for fmt in ("table", "json"):
            argv = ("transform", "in.json", case["move"], "out.json", "--format", fmt)
            assert run(capsys, *argv) == (0, case[fmt], ""), (case["file"], case["move"])
            written = {}
            for path in tmp_path.iterdir():
                if path != source:
                    written[path.name] = path.read_text()
                    path.unlink()
            assert written == case["files"], (case["file"], case["move"])


def _commands_on(name, path, other, tmp_path):
    """Every command on the corpus file ``name`` at ``path``: each transform
    move, compare against itself and ``other``, and invariants with no cache."""
    alphabet = parse_presentation(CORPUS_OBJECTS[name]).alphabet.symbols
    split = {a: [f"b{i}", f"c{i}"] for i, a in enumerate(alphabet)}
    moves = [{"move": "higher_block", "n": 2}, {"move": "expand", "a0": alphabet[0], "star": "*"},
             {"move": "split", "f": split}]
    return ([("invariants", path, "--no-cache"), ("classes", path, "--lmax", "3"),
             ("matrices", path, "--lmax", "3"), ("kgroups", path), ("triple", path),
             ("compare", path, path), ("compare", path, other), ("model", "verify", path)]
            + [("transform", path, json.dumps(m), str(tmp_path / "out.json")) for m in moves])


def _table_of(argv):
    """The table function that the command ``argv`` returns."""
    args = cli._parser().parse_args(list(argv))
    return args.fn(args)[1]


def _table_renders_json(capsys, table_argv, json_argv):
    """Run both formats; the table is the returned table function applied to
    the printed JSON, with the same exit code.  Whether a payload was printed."""
    code, table, err = run(capsys, *table_argv, "--format", "table")
    json_code, payload, json_err = run(capsys, *json_argv, "--format", "json")
    assert (code, err) == (json_code, json_err), table_argv
    if code in (2, 3) and not payload:   # refused: no payload, in either format
        assert table == "", table_argv
        return False
    assert table == _table_of(json_argv)(json.loads(payload)) + "\n", table_argv
    return True


def test_each_table_renders_its_json_payload(tmp_path, capsys):
    # main prints the payload or the table rendered from it alone
    names = sorted(CORPUS_OBJECTS)
    paths = {}
    for name in names:
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(CORPUS_OBJECTS[name]))
    rendered = collections.Counter()
    for i, name in enumerate(names):
        other = paths[names[(i + 1) % len(names)]]
        for argv in _commands_on(name, paths[name], other, tmp_path):
            if _table_renders_json(capsys, argv, argv):
                rendered[" ".join(argv[:2]) if argv[0] == "model" else argv[0]] += 1
        # invariants through a cache, a cold call then a hit, one cache per format
        table_argv, json_argv = (("invariants", paths[name], "--cache-dir",
                                  str(tmp_path / f"cache-{name}-{fmt}")) for fmt in ("t", "j"))
        for _ in ("miss", "hit"):
            assert _table_renders_json(capsys, table_argv, json_argv)
    assert rendered == {"invariants": 11, "classes": 11, "matrices": 11, "kgroups": 11,
                        "triple": 11, "compare": 22, "model verify": 5, "transform": 24}


def test_a_bad_format_is_refused_before_the_command_runs(files, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SHIFTK_FORMAT", "yaml")
    out = tmp_path / "out.json"
    move = '{"move":"higher_block","n":2}'
    for argv, code in ((("transform", files["full2"], move, str(out)), 2),
                       (("compare", files["full2"], files["full3"]), 3)):
        assert run(capsys, *argv) == (code, "", "error: unknown output format 'yaml'\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [("kgroups",), ("classes", "--format", "json")])
def test_a_closed_stdout_exits_141_silently(files, argv):
    # the read end of the child's stdout pipe is closed before it writes; a
    # buffered stdout fails at main's flush, an unbuffered one at the write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "shiftk.cli", argv[0], files["full3"],
                                   *argv[1:]], stdout=write, stderr=subprocess.PIPE,
                                  env={**env, **unbuffered}, check=False)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b""), unbuffered


def test_kgroups_and_triple(files, capsys):
    code, out, _ = run(capsys, "kgroups", files["full3"])
    assert code == 0 and "K0: Z/2" in out and "K1: 0" in out
    code, out, _ = run(capsys, "triple", files["golden_mean"], "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2 and data["delta_mask"] == [0, 1]


def test_transform_expand_writes_file(files, capsys, tmp_path):
    out_path = tmp_path / "expanded.json"
    code, out, _ = run(capsys, "transform", files["full2"],
                       '{"move":"expand","a0":"0","star":"*"}', str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    symbols = {s for e in data["edges"] for s in [e[2]]}
    assert symbols == {"0", "1", "*"}
    # canonical output parses back
    code2, out2, _ = run(capsys, "kgroups", str(out_path))
    assert code2 == 0 and "K0: 0" in out2


def test_transform_higher_block(files, capsys, tmp_path):
    out_path = tmp_path / "gm2.json"
    code, _, _ = run(capsys, "transform", files["golden_mean"],
                     '{"move":"higher_block","n":2}', str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["type"] == "sft_edges" and data["alphabet"] == ["00", "01", "10"]
    assert data["edges"] == [["00", "00"], ["00", "01"], ["01", "10"], ["10", "00"], ["10", "01"]]


def test_higher_block_writes_the_block_graph_edges(files, capsys, tmp_path):
    # the full 2-shift at n = 9: 512 blocks, each followed by two; written as
    # forbidden pairs it took 261,120 of them
    out_path = tmp_path / "full2_9.json"
    assert run(capsys, "transform", files["full2"], '{"move":"higher_block","n":9}',
               str(out_path))[0] == 0
    data = json.loads(out_path.read_text())
    assert data["type"] == "sft_edges" and len(data["alphabet"]) == 512
    assert len(data["edges"]) == 1024


def test_transform_into_a_missing_directory_is_bad_input(files, capsys, tmp_path):
    out_path = tmp_path / "missing" / "gm2.json"
    code, out, err = run(capsys, "transform", files["golden_mean"],
                         '{"move":"higher_block","n":2}', str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {out_path}: ") and "internal" not in err


@pytest.mark.parametrize("out", [".", "/"])
def test_transform_into_a_directory_is_bad_input(files, capsys, tmp_path, monkeypatch, out):
    # every move, split's second file included, refuses a path with no file name
    monkeypatch.chdir(tmp_path)
    for move in ('{"move":"higher_block","n":2}', '{"move":"expand","a0":"0","star":"*"}',
                 '{"move":"split","f":{"0":["b0","c0"],"1":["b1","c1"]}}'):
        assert run(capsys, "transform", files["full2"], move, out) == (
            2, "", f"error: {out}: Is a directory\n"), move
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        Path(p).name for p in files.values() if p != tmp_path)


def test_transform_split_writes_both_files(files, capsys, tmp_path):
    out_path = tmp_path / "union.json"
    code, out, _ = run(capsys, "transform", files["full2"],
                       '{"move":"split","f":{"0":["b0","c0"],"1":["b1","c1"]}}',
                       str(out_path))
    assert code == 0
    assert (tmp_path / "union.json").exists()
    assert (tmp_path / "union.second.json").exists()


def test_transform_split_refused_without_surjectivity(files, capsys):
    code, _, err = run(capsys, "transform", files["pair"],
                       '{"move":"split","f":{"0":["b0","c0"],"1":["b1","c1"]}}',
                       "/tmp/never-written.json")
    assert code == 2
    assert "shift-surjective" in err


def test_transform_bad_descriptor(files, capsys):
    code, _, err = run(capsys, "transform", files["full2"], '{"move":"warp"}', "/tmp/x.json")
    assert code == 2 and "unknown move" in err


@pytest.mark.parametrize("descriptor, message", [
    ('{"move":"higher_block","n":"x"}', "n must be an integer"),
    ('{"move":"higher_block","n":null}', "n must be an integer"),
    ('{"move":"higher_block","n":2.7}', "n must be an integer"),
    ('{"move":"higher_block","n":true}', "n must be an integer"),
    ('{"move":"split","f":["a"]}', "f must be an object"),
    ('{"move":"split","f":{"0":[["x"],"c"],"1":["b","d"]}}',
     "image of '0' must be a [first, second] pair of strings"),
    ('{"move":"expand","a0":["0"],"star":"*"}', "a0 and star must be strings"),
    ('{"move":"expand","a0":"0","star":1}', "a0 and star must be strings"),
    (DEEP, "move descriptor is nested too deeply"),
], ids=["n-string", "n-null", "n-float", "n-bool", "f-list", "image-list", "a0-list",
        "star-int", "nested"])
def test_transform_malformed_descriptor_is_refused(files, capsys, descriptor, message):
    out = files["dir"] / "never-written.json"
    code, stdout, err = run(capsys, "transform", files["full2"], descriptor, str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_compare_exit_codes(files, capsys, tmp_path):
    gm2 = tmp_path / "gm2.json"
    run(capsys, "transform", files["golden_mean"], '{"move":"higher_block","n":2}', str(gm2))

    code, out, _ = run(capsys, "compare", files["golden_mean"], str(gm2))
    assert code == 0 and "equivalent" in out

    code, out, _ = run(capsys, "compare", files["full2"], files["full3"])
    assert code == 1 and "distinguished" in out

    expanded = tmp_path / "full3x.json"
    run(capsys, "transform", files["full3"], '{"move":"expand","a0":"0","star":"*"}',
        str(expanded))
    code, out, _ = run(capsys, "compare", files["full3"], str(expanded))
    # K-groups agree; the dimension data itself differs in rank, which is a
    # genuine invariant difference (flow moves preserve only the K-groups)
    assert "K0: Z/2 | Z/2" in out
    assert code in (1, 2)


def test_each_stable_level_is_factored_once(files, capsys, monkeypatch):
    # one step map per presentation and one invariant-factor pass per
    # presentation and command, except that an equivalent compare reuses a's
    # K-groups for b, and a compare of one path builds it once
    calls = {"invariant_factors": 0, "stable_step_map": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(intlinalg, "invariant_factors")
    counted(invariants, "stable_step_map")
    relabelled = write_relabelled_pair(files["dir"])
    commands = [
        (("compare", files["full2"], files["golden_mean"]), 1, 2, 2),
        (("compare", files["full3"], files["full3"], "--format", "json"), 0, 1, 1),
        (("compare", *relabelled), 0, 1, 2),
        (("invariants", files["golden_mean"], "--no-cache"), 0, 1, 1),
        (("kgroups", files["pair"]), 0, 1, 1),
    ]
    for argv, exit_code, factored, stepped in commands:
        calls.update(invariant_factors=0, stable_step_map=0)
        code, _, _ = run(capsys, *argv)
        assert code == exit_code, argv
        assert calls == {"invariant_factors": factored, "stable_step_map": stepped}, argv


def write_relabelled_pair(directory):
    """A vertex SFT and a relabelling of it whose stationary systems differ,
    so that compare finds a non-identity coordinate permutation."""
    a = [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0], [0, 1, 0, 1]]
    relabel = [2, 3, 0, 1]
    b = [[0] * 4 for _ in range(4)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            b[relabel[i]][relabel[j]] = x
    paths = []
    for name, adjacency in (("relabel_a", a), ("relabel_b", b)):
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"type": "sft_matrix", "adjacency": adjacency}))
        paths.append(str(path))
    return paths


def test_equivalent_compare_shows_b_the_same_rows(files, capsys):
    code, out, _ = run(capsys, "compare", *write_relabelled_pair(files["dir"]))
    assert code == 0
    assert out == ("K0: Z^2 | Z^2\nK1: Z^2 | Z^2\ntriple rank: 4 | 4\n"
                   "verdict: equivalent (coordinate permutation [1, 2, 0, 3])\n")


def test_compare_of_a_file_with_itself_computes_no_limit_rank(tmp_path, capsys, monkeypatch):
    # a sparse vertex SFT: a permutation plus one random edge per vertex
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"type": "sft_matrix",
                                "adjacency": sparse_adjacency(random.Random(3), 256, 1)}))
    calls = []
    real = invariants.eventual_rank
    monkeypatch.setattr(invariants, "eventual_rank", lambda m: calls.append(m) or real(m))
    code, out, _ = run(capsys, "compare", str(path), str(path))
    assert code == 0 and out.endswith("verdict: equivalent (identity intertwiner)\n")
    assert calls == []


def test_compare_of_a_file_with_itself_loads_and_builds_it_once(tmp_path, capsys, monkeypatch):
    # one path is loaded and built once, and prints what a copy of the
    # file under a second path prints
    path, copy = tmp_path / "sparse.json", tmp_path / "copy.json"
    path.write_text(json.dumps({"type": "sft_matrix",
                                "adjacency": sparse_adjacency(random.Random(5), 64, 2)}))
    copy.write_text(path.read_text())
    for fmt in ("table", "json"):
        expected = run(capsys, "compare", str(path), str(copy), "--format", fmt)
        calls = collections.Counter()
        for module, name in ((cli, "load_presentation"), (partitions, "build_chain")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name:
                                calls.update([name]) or real(*a))
        got = run(capsys, "compare", str(path), str(path), "--format", fmt)
        monkeypatch.undo()
        assert got == expected and "identity intertwiner" in got[1]
        assert calls == collections.Counter(load_presentation=1, build_chain=1), calls


def test_other_exceptions_are_internal_errors(files, capsys, monkeypatch):
    def broken(path):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "load_presentation", broken)
    for argv in (("invariants", files["pair"], "--no-cache"), ("model", "verify", files["pair"])):
        assert run(capsys, *argv) == (4, "", "internal error: TypeError: unsupported operand\n")


def test_compare_input_error_uses_exit_three(files, capsys):
    code, _, err = run(capsys, "compare", files["full2"], "/nonexistent.json")
    assert code == 3


def test_compare_usage_errors_exit_three(files, capsys):
    # compare's exit 2 means inconclusive, so a usage error there exits 3
    argvs = [("compare", files["full2"]), ("compare", files["full2"], files["full3"], "--bogus"),
             ("compare", files["full2"], files["full3"], "--lmax", "3")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv, code in [(a, 3) for a in argvs] + [(("kgroups",), 2), (("compare", "-h"), 0),
                                                   (("--version",), 0)]:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "shiftk.cli", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert exc.value.code == fresh.returncode == code, argv
        assert (fresh.stdout, fresh.stderr) == (out.out, out.err), argv
        if code:
            assert out.err.startswith("usage: shiftk") and "error: " in out.err, argv


def test_model_verify(files, capsys):
    code, out, _ = run(capsys, "model", "verify", files["pair"], "--L", "2")
    assert code == 0
    assert "representation" in out and "structure" in out

    code, _, err = run(capsys, "model", "verify", files["golden_mean"])
    assert code == 2
    assert "finite presentation" in err


def test_model_verify_json_lists_each_family(files, capsys):
    code, out, err = run(capsys, "model", "verify", files["pair"], "--L", "2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == [
        {"name": "representation", "checks": 98, "violations": []},
        {"name": "structure", "checks": 44, "violations": []},
        {"name": "composition rules", "checks": 177, "violations": []},
    ]
    assert run(capsys, "model", "verify", files["pair"], "--L", "2") == (0, (
        "representation: 98 checks, ok\nstructure: 44 checks, ok\n"
        "composition rules: 177 checks, ok\n"), "")


def test_model_verify_refuses_a_negative_word_length(files, capsys):
    code, out, err = run(capsys, "model", "verify", files["pair"], "--L", "-1")
    assert (code, out, err) == (2, "", "error: maximum word length must be >= 0\n")


def test_model_verify_refuses_a_word_length_past_the_cap_at_once(files, capsys, monkeypatch):
    # --L 40 would build T_w for the 2^81 - 1 words up to length 80: no word
    # operator is built before the refusal
    monkeypatch.setattr(model, "op_word", lambda m, u: pytest.fail("a word operator was built"))
    code, out, err = run(capsys, "model", "verify", files["pair"], "--L", "40")
    assert (code, out) == (2, "")
    assert err == ("error: model verification at L = 40 needs an operator per word of length "
                   "up to 80; the words up to length 17 already number 262143, which exceeds "
                   "cap 200000\n")


_POINT_0 = {"pre": [], "per": ["0"]}


@pytest.mark.parametrize("obj, message", [
    ({"type": "sft_matrix", "adjacency": [[1, 1], 5]}, "adjacency must be a list of rows"),
    ({"type": "sft_matrix", "adjacency": [[True, 1], [1, 0]]}, "entries must be 0 or 1"),
    ({"type": "sft_matrix", "adjacency": [[1, 1], [1, False]]}, "entries must be 0 or 1"),
    ({"type": "sft_matrix", "adjacency": [[1, 1.0], [1, 0]]}, "entries must be 0 or 1"),
    ({"type": "sft_matrix", "adjacency": [[1, 1], [1, 0.0]]}, "entries must be 0 or 1"),
    ({"type": "sofic", "states": [0, 1], "edges": [[0, 1, "a"], [1, 0, "a"]]},
     "state names must be strings"),
    ({"type": "sofic", "states": [["a"]], "edges": [[["a"], ["a"], "0"]]},
     "state names must be strings"),
    ({"type": "sofic", "states": ["a", "b"], "edges": [["a", ["b"], "x"]]},
     "from and to must be state names"),
    ({"type": "sofic", "states": ["a", "b"], "edges": [[{"a": 1}, "b", "x"]]},
     "from and to must be state names"),
    ({"type": "finite", "alphabet": ["ab", "a", "b"],
      "points": [{"pre": [], "per": "ab"}, {"pre": [], "per": ["b", "a"]}]},
     "pre and per must be lists of symbols"),
    ({"type": "finite", "alphabet": ["0", "1"], "points": [_POINT_0, {"pre": "1", "per": ["0"]}]},
     "pre and per must be lists of symbols"),
    ({"type": "finite", "alphabet": ["0"], "points": 5}, "points must be a list of points"),
    ({"type": ["sft"], "alphabet": ["0"], "forbidden": []}, "unknown presentation type"),
    ({"type": "finite", "alphabet": ["0"], "points": [{"pre": [], "per": [["0"]]}]},
     "not in alphabet"),
    ({"type": "sft", "alphabet": ["0"], "forbidden": [[["0"]]]}, "not in alphabet"),
    ({"type": "sft_edges", "alphabet": ["0"], "edges": [["0", ["0"]]]}, "not in alphabet"),
], ids=["row-int", "entry-true", "entry-false", "entry-1.0", "entry-0.0", "state-int",
        "state-list", "endpoint-list", "endpoint-object", "per-string", "pre-string", "points-int", "type-list", "symbol-list-point",
        "symbol-list-forbidden", "symbol-list-edge"])
def test_malformed_field_types_are_refused(tmp_path, capsys, obj, message):
    with pytest.raises(ValidationError, match=message):
        parse_presentation(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "classes", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_reused_parser_leaks_no_state(files, capsys):
    """One process, several commands: each prints what a fresh process prints."""
    commands = [
        ("model", "verify", files["pair"], "--L", "2"),
        ("invariants", files["golden_mean"], "--no-cache", "--format", "json"),
        ("kgroups", files["full3"]),
        ("model", "verify", files["pair"]),     # the default --L, not the last one
    ]
    in_process = [run(capsys, *command)[:2] for command in commands]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for command, (code, out) in zip(commands, in_process):
        fresh = subprocess.run([sys.executable, "-m", "shiftk.cli", *command],
                               capture_output=True, text=True, env=env, check=False)
        assert (fresh.returncode, fresh.stdout) == (code, out), command
    assert in_process[0][1] != in_process[3][1]


# Runs shiftk.cli.main on argv in a fresh interpreter and prints its exit code
# and the names in sys.modules once it has returned.  The interpreter runs with
# -S, so what a site-packages .pth file imports at start-up is not counted.
_MODULES_AT_EXIT = """
import contextlib, io, json, sys
from shiftk.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

HEAVY = {"hashlib", "tempfile", "shiftk.partitions", "shiftk.invariants", "shiftk.intlinalg",
         "shiftk.model", "shiftk.transforms"}


def modules_at_exit(script, *argv):
    """Exit code and sys.modules of ``script`` run on ``argv`` with -S."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                          capture_output=True, text=True, env=env, check=True)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules)


def loaded(*argv):
    """Exit code and the modules of HEAVY that the command ``argv`` loads."""
    code, modules = modules_at_exit(_MODULES_AT_EXIT, *argv)
    return code, HEAVY & modules


def test_importing_the_package_loads_no_submodule():
    script = "import json, sys, shiftk; print(json.dumps([0, sorted(sys.modules)]))"
    _, modules = modules_at_exit(script)
    assert "shiftk" in modules
    assert sorted(m for m in modules if m.startswith("shiftk.") or m == "hashlib") == []
    # each exported name resolves to its module's object
    for module, names in shiftk._EXPORTS.items():
        for name in names:
            assert getattr(shiftk, name) is getattr(getattr(shiftk, module), name)
    assert set(shiftk.__all__) <= set(dir(shiftk))


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_each_command_loads_only_the_modules_it_reads(files, fmt):
    f = ("--format", fmt)
    assert loaded("kgroups", files["full3"], *f) == (
        0, {"shiftk.partitions", "shiftk.invariants", "shiftk.intlinalg"})
    assert loaded("triple", files["full3"], *f) == (
        0, {"shiftk.partitions", "shiftk.invariants", "shiftk.intlinalg"})
    assert loaded("model", "verify", files["pair"], *f) == (0, {"shiftk.model"})


def test_a_json_cache_hit_only_parses_and_hashes(files, tmp_path):
    argv = ("invariants", files["golden_mean"], "--cache-dir", str(tmp_path / "cache"),
            "--format", "json")
    miss = loaded(*argv)
    assert miss == (0, {"hashlib", "tempfile", "shiftk.partitions", "shiftk.invariants",
                        "shiftk.intlinalg"})
    assert loaded(*argv) == (0, {"hashlib"})


def test_env_overrides_format(files, capsys, monkeypatch):
    monkeypatch.setenv("SHIFTK_FORMAT", "json")
    code, out, _ = run(capsys, "kgroups", files["full3"])
    assert code == 0
    assert json.loads(out)["k0"]["torsion"] == [2]


def test_non_integer_lmax_from_the_environment_is_refused(files, capsys, monkeypatch):
    monkeypatch.setenv("SHIFTK_LMAX", "abc")
    code, out, err = run(capsys, "invariants", files["full3"])
    assert (code, out) == (2, "")
    assert err == "error: SHIFTK_LMAX must be an integer, not 'abc'\n"


def test_each_command_has_only_the_options_it_reads(files, capsys, monkeypatch):
    subs = next(a for a in cli.build_parser()._actions if a.choices and "model" in a.choices)
    commands = dict(subs.choices)
    model = commands.pop("model")
    commands["model verify"] = next(a for a in model._actions if a.choices).choices["verify"]
    options = {name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
               for name, sub in commands.items()}
    assert options == {
        "invariants": {"--lmax", "--format", "--cache-dir", "--no-cache"},
        "classes": {"--lmax", "--format"},
        "matrices": {"--lmax", "--format"},
        "kgroups": {"--format"},
        "triple": {"--format"},
        "transform": {"--format"},
        "compare": {"--format"},
        "model verify": {"--L", "--format"},
    }

    out = str(files["dir"] / "hb2.json")
    higher_block = ("transform", files["golden_mean"], '{"move":"higher_block","n":2}', out)
    for argv in (("model", "verify", files["pair"]), higher_block):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--lmax", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lmax 0" in capsys.readouterr().err

    # an override is read only where its flag exists
    monkeypatch.setenv("SHIFTK_LMAX", "abc")
    refused = (2, "error: SHIFTK_LMAX must be an integer, not 'abc'\n")
    for argv in [("invariants", files["pair"]), ("classes", files["pair"]),
                 ("matrices", files["pair"]), ("kgroups", files["pair"]),
                 ("triple", files["pair"]), higher_block,
                 ("compare", files["pair"], files["pair"]), ("model", "verify", files["pair"])]:
        expected = refused if argv[0] in ("invariants", "classes", "matrices") else (0, "")
        assert run(capsys, *argv)[::2] == expected, argv


def test_cache_misses_when_sources_change(files, capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ("invariants", files["golden_mean"], "--cache-dir", str(cache), "--format", "json")
    code, fresh, _ = run(capsys, *args)
    assert code == 0 and len(list(cache.glob("*.json"))) == 1
    monkeypatch.setattr(cli, "_source_hash", lambda: "0" * 64)
    code, again, _ = run(capsys, *args)
    assert code == 0 and again == fresh
    assert len(list(cache.glob("*.json"))) == 2


def test_a_cache_hit_is_served_only_from_a_whole_record(files, capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ("invariants", files["golden_mean"], "--cache-dir", str(cache), "--format", "json")
    code, fresh, _ = run(capsys, *args)
    assert code == 0 and set(json.loads(fresh)) == cli._RECORD_KEYS
    [path] = cache.glob("*.json")
    record = json.loads(fresh)
    extra, short = {**record, "k2": None}, dict(record)
    del short["triple"]
    for bad in (b"[1]", b"{}", b"null", json.dumps(extra).encode(), json.dumps(short).encode(),
                b"{", b"\xff\xfe", DEEP.encode()):
        path.write_bytes(bad)
        assert run(capsys, *args) == (0, fresh, ""), bad
        assert path.read_text() == fresh, bad      # the fresh record overwrote the bad one
    assert run(capsys, *args) == (0, fresh, "")


@pytest.mark.parametrize("field, value", [
    ("triple", 1), ("stabilization", []), ("stabilization", {"level": 1}), ("k0", "Z"),
    ("m_sequence", 3),
])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_cache_hit_is_served_only_from_a_record_of_the_written_shape(
        files, capsys, tmp_path, field, value, fmt):
    cache = tmp_path / "cache"
    args = ("invariants", files["golden_mean"], "--cache-dir", str(cache))
    expected = run(capsys, *args[:2], "--no-cache", "--format", fmt)
    assert expected[0] == 0
    run(capsys, *args)
    [path] = cache.glob("*.json")
    fresh = path.read_text()
    assert cli._cache_read(path) == json.loads(fresh)     # a written record is a hit
    path.write_text(json.dumps({**json.loads(fresh), field: value}))
    assert run(capsys, *args, "--format", fmt) == expected
    assert path.read_text() == fresh      # the fresh record overwrote the bad one


def _write_forms(tmp_path, adjacency):
    """The shift of ``adjacency`` as a matrix, as forbidden pairs and as edges."""
    n = len(adjacency)
    allowed = {(a, b) for a in range(n) for b in range(n) if adjacency[a][b]}
    forbidden = [(a, b) for a in range(n) for b in range(n) if not adjacency[a][b]]
    paths = []
    for obj in memory1_forms(n, allowed, forbidden):
        paths.append(tmp_path / f"{obj['type']}.json")
        paths[-1].write_text(json.dumps(obj))
    return paths


def test_the_forms_of_one_shift_hit_one_cache_record(capsys, tmp_path, monkeypatch):
    # a matrix, forbidden pairs, an edge list and random rewrites at memories
    # 2 and 3; the golden mean at memories 1 and 2; a dead letter three ways
    cache = tmp_path / "cache"
    computed = []
    record = cli._invariant_record
    monkeypatch.setattr(cli, "_invariant_record", lambda *a: computed.append(1) or record(*a))
    rng = random.Random(2035)
    six = [json.loads(path.read_text()) for path in _write_forms(tmp_path, SIX_VERTEX_SFT["adjacency"])]
    six += inflated_forms(SIX_VERTEX_SFT, rng, 1) + inflated_forms(SIX_VERTEX_SFT, rng, 2)
    for i, forms in enumerate((six, GOLDEN_FORMS, DEAD_LETTER_FORMS)):
        outputs = set()
        for j, obj in enumerate(forms):
            path = tmp_path / f"shift{i}-form{j}.json"
            path.write_text(json.dumps(obj))
            code, out, _ = run(capsys, "invariants", str(path), "--cache-dir", str(cache))
            assert code == 0
            outputs.add(out)
        assert (len(outputs), len(computed), len(list(cache.iterdir()))) == (1, i + 1, i + 1)


def test_a_record_under_the_forbidden_pair_key_is_never_served(capsys, tmp_path):
    # the canonical bytes of a vertex SFT used to be its forbidden pairs: a
    # whole record stored under that key, here one of another shift, is a miss
    cache = tmp_path / "cache"
    p = parse_presentation(SIX_VERTEX_SFT)
    symbols = p.alphabet.symbols
    old = json.dumps({"type": "sft", "alphabet": list(symbols),
                      "forbidden": [[symbols[a] for a in w]
                                    for w in sorted(forbidden_words(SIX_VERTEX_SFT))]},
                     separators=(",", ":")).encode()
    stale = cli._cache_path(cache, cli.DEFAULT_LMAX, old)
    full2 = parse_presentation(CORPUS_OBJECTS["full2"])
    stale.parent.mkdir()
    stale.write_text(json.dumps(cli._invariant_record(full2, full2.canonical_bytes(),
                                                      cli.DEFAULT_LMAX)))
    for path in _write_forms(tmp_path, SIX_VERTEX_SFT["adjacency"]):
        code, out, _ = run(capsys, "invariants", str(path), "--cache-dir", str(cache),
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == cli._invariant_record(p, p.canonical_bytes(), cli.DEFAULT_LMAX)
    fresh = cli._cache_path(cache, cli.DEFAULT_LMAX, p.canonical_bytes())
    assert sorted(cache.iterdir()) == sorted([stale, fresh])


def test_a_failed_cache_write_leaves_no_temp_file(files, capsys, tmp_path, monkeypatch):
    def full(src, dst):
        raise OSError(28, "No space left on device")
    expected = run(capsys, "invariants", files["golden_mean"], "--no-cache")
    monkeypatch.setattr(cli.os, "replace", full)
    cache = tmp_path / "cache"
    assert run(capsys, "invariants", files["golden_mean"], "--cache-dir", str(cache)) == expected
    assert list(cache.iterdir()) == []


def test_an_empty_cache_dir_is_refused(files, capsys, tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    refused = (2, "", "error: cache dir must not be empty\n")
    assert run(capsys, "invariants", files["golden_mean"], "--cache-dir", "") == refused
    monkeypatch.setenv("SHIFTK_CACHE_DIR", "")
    assert run(capsys, "invariants", files["golden_mean"]) == refused
    assert run(capsys, "invariants", files["golden_mean"], "--no-cache")[0] == 0
    assert list(work.iterdir()) == []


def test_the_home_directory_is_read_only_for_the_default_cache_dir(
        files, capsys, tmp_path, monkeypatch):
    def no_home():
        raise RuntimeError("Could not determine home directory.")
    monkeypatch.setattr(cli.Path, "home", no_home)
    monkeypatch.delenv("SHIFTK_CACHE_DIR", raising=False)
    expected = run(capsys, "invariants", files["golden_mean"], "--no-cache")
    assert expected[0] == 0
    cache = tmp_path / "cache"
    assert run(capsys, "invariants", files["golden_mean"], "--cache-dir", str(cache)) == expected
    assert len(list(cache.iterdir())) == 1
    monkeypatch.setenv("SHIFTK_CACHE_DIR", str(cache))
    assert run(capsys, "invariants", files["golden_mean"]) == expected
    monkeypatch.delenv("SHIFTK_CACHE_DIR")
    assert run(capsys, "invariants", files["golden_mean"]) == (
        2, "", "error: cannot determine the home directory for the cache; "
               "give --cache-dir or --no-cache\n")


def _random_sofic(rng, n_states):
    states = [f"s{i}" for i in range(n_states)]
    edges = {(states[i], states[(i + 1) % n_states], "0") for i in range(n_states)}
    while len(edges) < 2 * n_states:
        edges.add((rng.choice(states), rng.choice(states), rng.choice("01")))
    return {"type": "sofic", "states": states, "edges": [list(e) for e in sorted(edges)]}


def test_output_independent_of_caps_and_state_names(tmp_path, capsys, monkeypatch):
    rng = random.Random(5)
    objects = [CORPUS_OBJECTS[name] for name in ("golden_mean", "pair", "even")]
    objects.append({"type": "sft_matrix", "adjacency": random_essential_adjacency(rng, 7)})
    objects.append(_random_sofic(rng, 5))
    paths = []
    for i, obj in enumerate(objects):
        paths.append(tmp_path / f"p{i}.json")
        paths[-1].write_text(json.dumps(obj))

    def outputs():
        out = []
        for path in paths:
            for command in ("invariants", "matrices", "classes"):
                no_cache = ("--no-cache",) if command == "invariants" else ()
                code, text, _ = run(capsys, command, str(path), *no_cache,
                                    "--format", "json", "--lmax", "6")
                assert code == 0, (command, path)
                data = json.loads(text)
                data.pop("signatures", None)      # the displayed words, limited on purpose
                out.append(data if command == "classes" else text)
        return out

    default = outputs()
    monkeypatch.setattr(presentations, "MAX_CONTEXTS", 300)
    monkeypatch.setattr(presentations, "MAX_LANGUAGE_WORDS", 1)
    monkeypatch.setattr(partitions, "SIGNATURE_WORD_LIMIT", 2)
    assert outputs() == default

    # renaming states reorders the state sets that serve as contexts, but
    # the class order follows the prepend transition, not the names
    for obj in (CORPUS_OBJECTS["even"], objects[-1]):
        rename = {s: f"t{len(obj['states']) - i}" for i, s in enumerate(obj["states"])}
        renamed = {"type": "sofic", "states": [rename[s] for s in obj["states"]],
                   "edges": [[rename[q], rename[r], a] for q, r, a in obj["edges"]]}
        triples = []
        for i, o in enumerate((obj, renamed)):
            path = tmp_path / f"named{i}.json"
            path.write_text(json.dumps(o))
            code, out, _ = run(capsys, "triple", str(path), "--format", "json")
            assert code == 0
            triples.append(json.loads(out))
        assert triples[0] == triples[1]


def _limit_json(text):
    """Command JSON without what --lmax bounds: the shown levels and the check depth."""
    data = json.loads(text)
    data.pop("m_sequence", None)
    data.get("stabilization", {}).pop("checked_to", None)
    return data


def test_limit_invariants_do_not_depend_on_lmax(tmp_path, capsys):
    rng = random.Random(17)
    objects = list(CORPUS_OBJECTS.values())
    objects += [{"type": "sft_matrix", "adjacency": random_essential_adjacency(rng, n)}
                for n in (3, 4, 5, 6)]
    objects += [_random_sofic(rng, n) for n in (3, 4, 5)]
    objects += [random_memory_sft(rng, m) for m in (2, 3, 3, 4)]
    objects += [periodic_orbit(n) for n in (5, 8)]
    while len(objects) < len(CORPUS_OBJECTS) + 25:
        obj = random_presentation(rng)
        try:
            parse_presentation(obj)
        except (ValidationError, ResourceCapError):
            continue
        objects.append(obj)
    assert {"sft", "sft_matrix", "sofic", "finite"} <= {obj["type"] for obj in objects}
    paths = []
    for i, obj in enumerate(objects):
        paths.append(str(tmp_path / f"p{i}.json"))
        Path(paths[-1]).write_text(json.dumps(obj))
    parsed = [parse_presentation(obj) for obj in objects]

    def answers(i, lmax):
        """invariants through the CLI; what kgroups, triple and compare print,
        through the library at chain length lmax."""
        code, text, _ = run(capsys, "invariants", paths[i], "--no-cache", "--format", "json",
                            "--lmax", str(lmax))
        assert code == 0, (paths[i], lmax)
        p, partner = parsed[i], parsed[(i + 1) % len(parsed)]
        kg = k_groups(build_chain(p, lmax))
        ta, tb = (dimension_triple(build_chain(q, lmax)) for q in (p, partner))
        outcome = compare_triples(ta, tb)
        return {"invariants": _limit_json(text), "kgroups": (kg.k0.to_json(), kg.k1.to_json()),
                "triple": ta.to_json(), "compare": (outcome.verdict, outcome.witness)}

    below_l0 = 0
    for i in range(len(objects)):
        limit = answers(i, 40)
        l0 = limit["invariants"]["stabilization"]["level"]
        for lmax in range(1, l0 + 3):
            assert answers(i, lmax) == limit, (objects[i], lmax)
            below_l0 += lmax <= l0
    assert below_l0 >= 40


def test_kgroups_of_a_long_periodic_orbit_at_the_default_lmax(tmp_path, capsys):
    # the orbit of (0^(n-1) 1)^inf stabilizes at level n - 1, past the default lmax 12
    for n in (13, 30):
        path = tmp_path / f"orbit{n}.json"
        path.write_text(json.dumps(periodic_orbit(n)))
        code, out, _ = run(capsys, "kgroups", str(path))
        assert (code, out) == (0, "K0: Z\nK1: Z\n"), n
        code, out, _ = run(capsys, "invariants", str(path), "--no-cache", "--format", "json")
        assert code == 0 and json.loads(out)["stabilization"]["level"] == n - 1, n
