import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    periodic_orbit,
    random_essential_adjacency,
    random_memory_sft,
    random_presentation,
)
from shiftk import (
    ResourceCapError,
    ValidationError,
    cli,
    intlinalg,
    invariants,
    parse_presentation,
    partitions,
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


def test_invariants_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type":')
    code, _, err = run(capsys, "invariants", str(bad))
    assert code == 2
    assert "line" in err


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


def test_matrices_output(files, capsys):
    code, out, _ = run(capsys, "matrices", files["golden_mean"], "--lmax", "2")
    assert code == 0
    assert "inclusion" in out and "action sum" in out and "difference" in out


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
    assert data["type"] == "sft" and data["alphabet"] == ["00", "01", "10"]


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
    # one step map and one invariant-factor pass per presentation and command
    calls = {"invariant_factors": 0, "stable_step_map": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(intlinalg, "invariant_factors")
    counted(invariants, "stable_step_map")
    commands = [
        (("compare", files["full2"], files["golden_mean"]), 1, 2),
        (("compare", files["full3"], files["full3"], "--format", "json"), 0, 2),
        (("invariants", files["golden_mean"], "--no-cache"), 0, 1),
        (("kgroups", files["pair"]), 0, 1),
    ]
    for argv, exit_code, expected in commands:
        calls.update(invariant_factors=0, stable_step_map=0)
        code, _, _ = run(capsys, *argv)
        assert code == exit_code, argv
        assert calls == {"invariant_factors": expected, "stable_step_map": expected}, argv


def test_compare_input_error_uses_exit_three(files, capsys):
    code, _, err = run(capsys, "compare", files["full2"], "/nonexistent.json")
    assert code == 3


def test_model_verify(files, capsys):
    code, out, _ = run(capsys, "model", "verify", files["pair"], "--L", "2")
    assert code == 0
    assert "representation" in out and "structure" in out

    code, _, err = run(capsys, "model", "verify", files["golden_mean"])
    assert code == 2
    assert "finite presentation" in err


def test_reused_parser_leaks_no_state(files, capsys):
    """One process, several commands: each prints what a fresh process prints."""
    commands = [
        ("model", "verify", files["pair"], "--L", "2"),
        ("invariants", files["golden_mean"], "--no-cache", "--format", "json"),
        ("kgroups", files["full3"], "--no-cache"),
        ("model", "verify", files["pair"]),     # the default --L, not the last one
    ]
    in_process = [run(capsys, *command)[:2] for command in commands]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for command, (code, out) in zip(commands, in_process):
        fresh = subprocess.run([sys.executable, "-m", "shiftk.cli", *command],
                               capture_output=True, text=True, env=env, check=False)
        assert (fresh.returncode, fresh.stdout) == (code, out), command
    assert in_process[0][1] != in_process[3][1]


def test_env_overrides_format(files, capsys, monkeypatch):
    monkeypatch.setenv("SHIFTK_FORMAT", "json")
    code, out, _ = run(capsys, "kgroups", files["full3"])
    assert code == 0
    assert json.loads(out)["k0"]["torsion"] == [2]


def test_cache_misses_when_sources_change(files, capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ("invariants", files["golden_mean"], "--cache-dir", str(cache), "--format", "json")
    code, fresh, _ = run(capsys, *args)
    assert code == 0 and len(list(cache.glob("*.json"))) == 1
    monkeypatch.setattr(cli, "_source_hash", lambda: "0" * 64)
    code, again, _ = run(capsys, *args)
    assert code == 0 and again == fresh
    assert len(list(cache.glob("*.json"))) == 2


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
                code, text, _ = run(capsys, command, str(path), "--no-cache",
                                    "--format", "json", "--lmax", "6")
                assert code == 0, (command, path)
                data = json.loads(text)
                for level in data.get("levels", ()):
                    for cls in level["classes"]:
                        del cls["signature"]      # the displayed words, limited on purpose
                out.append(data if command == "classes" else text)
        return out

    default = outputs()
    monkeypatch.setenv("SHIFTK_MAX_CONTEXTS", "300")
    monkeypatch.setenv("SHIFTK_MAX_LANGUAGE_WORDS", "1")
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

    def answers(path, partner, lmax):
        out = {}
        for command in ("invariants", "kgroups", "triple"):
            code, text, _ = run(capsys, command, path, "--no-cache", "--format", "json",
                                "--lmax", str(lmax))
            assert code == 0, (command, path, lmax)
            out[command] = _limit_json(text)
        code, text, _ = run(capsys, "compare", path, partner, "--format", "json",
                            "--lmax", str(lmax))
        out["compare"] = (code, json.loads(text))
        return out

    below_l0 = 0
    for i, path in enumerate(paths):
        partner = paths[(i + 1) % len(paths)]
        limit = answers(path, partner, 40)
        l0 = limit["invariants"]["stabilization"]["level"]
        for lmax in range(1, l0 + 3):
            assert answers(path, partner, lmax) == limit, (objects[i], lmax)
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
