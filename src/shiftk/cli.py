"""Command-line front end.

Subcommands: invariants, classes, matrices, kgroups, triple, transform,
compare, model verify.  All file input is the strict JSON presentation
format; identical input and configuration produce byte-identical output.
A table renders the payload its command prints under ``--format json``.
``transform`` looks its move up in one table, ``MOVES``; each move checks
its own arguments.  Each command imports the modules it reads when it runs,
and ``hashlib`` and ``tempfile`` are imported where a hash is taken or a
cache file written, so a short call loads only what it uses.

Exit codes: 0 success; 1 ``model verify`` found a violated identity; 2 bad
input or refused operation; 4 internal error.  compare uses 0 = equivalent
(an intertwiner was found), 1 = distinguished, 2 = inconclusive and 3 for
bad input or a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .errors import ResourceCapError, ShiftError, ValidationError
from .presentations import dump_presentation, load_presentation

ENV_PREFIX = "SHIFTK_"
DEFAULT_LMAX = 12
_RECORD_KEYS = {"presentation", "tool_version", "m_sequence", "stabilization",
                "k0", "k0_text", "k1", "k1_text", "triple"}
_RECORD_TEXTS = ("presentation", "tool_version", "k0_text", "k1_text")
# the keys of each object in a record, as _invariant_record writes them
_RECORD_OBJECTS = {"stabilization": {"stable", "level", "checked_to"},
                   "k0": {"free_rank", "torsion"}, "k1": {"free_rank", "torsion"},
                   "triple": {"rank", "step_map", "delta_mask"}}


@functools.cache
def _source_hash() -> str:
    """Hash of this package's own sources, so a code change (to a record's layout, the
    version or a cap included) never serves stale records."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _option(args, dest: str, default):
    """The flag stored at ``dest``, else ``SHIFTK_<DEST>`` from the environment, else ``default``."""
    flag = getattr(args, dest)
    if flag is not None:
        return flag
    raw = os.environ.get(ENV_PREFIX + dest.upper())
    return default if raw is None else raw


def _fmt(args) -> str:
    fmt = _option(args, "format", "table")
    if fmt not in ("table", "json"):
        raise ValidationError(f"unknown output format {fmt!r}")
    return fmt


def _lmax(args) -> int:
    raw = _option(args, "lmax", DEFAULT_LMAX)
    try:
        lmax = int(raw)
    except ValueError:   # the flag is an int already, so the value came from the environment
        raise ValidationError(f"{ENV_PREFIX}LMAX must be an integer, not {raw!r}") from None
    if lmax < 1:
        raise ValidationError("lmax must be >= 1")
    return lmax


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# invariant records and cache


def _matrix_lines(name: str, rows) -> list[str]:
    return [f"{name}:"] + ["  [" + " ".join(f"{x:3d}" for x in row) + "]" for row in rows]


def _invariant_record(p, canonical: bytes, lmax: int) -> dict:
    import hashlib

    from .invariants import dimension_triple
    from .partitions import build_chain

    chain = build_chain(p, lmax)
    triple = dimension_triple(chain)
    kg = triple.k_groups
    return {
        "presentation": hashlib.sha256(canonical).hexdigest(),   # p.content_hash()
        "tool_version": __version__,
        "m_sequence": list(chain.m_sequence),
        "stabilization": asdict(chain.stabilization),
        "k0": kg.k0.to_json(),
        "k0_text": kg.k0.render(),
        "k1": kg.k1.to_json(),
        "k1_text": kg.k1.render(),
        "triple": triple.to_json(),
    }


def _cache_path(cache_dir, lmax: int, canonical: bytes) -> Path:
    import hashlib

    if cache_dir is None:   # the default, ~/.cache/shiftk: only now is the home looked up
        try:
            cache_dir = Path.home() / ".cache" / "shiftk"
        except RuntimeError:
            raise ValidationError("cannot determine the home directory for the cache; "
                                  "give --cache-dir or --no-cache") from None
    if cache_dir == "":   # Path("") is the working directory
        raise ValidationError("cache dir must not be empty")
    fingerprint = json.dumps({"lmax": lmax, "source": _source_hash()}, sort_keys=True)
    key = hashlib.sha256(canonical + b"\n" + fingerprint.encode()).hexdigest()
    return Path(cache_dir) / f"{key}.json"


def _cache_read(path: Path):
    """The record cached at ``path``; None, a miss, unless it has a record's keys, its
    objects' keys, a list for the m-sequence and strings for the texts (not walked further)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError, RecursionError):   # not UTF-8, not JSON or nested too deeply
        return None
    if not (isinstance(record, dict) and record.keys() == _RECORD_KEYS
            and isinstance(record["m_sequence"], list)
            and all(isinstance(record[k], str) for k in _RECORD_TEXTS)
            and all(isinstance(record[k], dict) and record[k].keys() == keys
                    for k, keys in _RECORD_OBJECTS.items())):
        return None
    return record


def _cache_write(path: Path, record: dict) -> None:
    import tempfile

    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:   # cache is best-effort, but leaves no partial file
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _print_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        _emit_json(record)
        return
    from .partitions import Stabilization

    triple = record["triple"]
    _emit("\n".join([
        f"presentation: {record['presentation']}",
        f"tool version: {record['tool_version']}",
        "m-sequence: " + " ".join(str(m) for m in record["m_sequence"]),
        "stabilization: " + Stabilization(**record["stabilization"]).render(),
        f"K0: {record['k0_text']}",
        f"K1: {record['k1_text']}",
        f"triple rank: {triple['rank']}",
        "step map: " + json.dumps(triple["step_map"]),
        "delta mask: " + json.dumps(triple["delta_mask"]),
    ]))


# ---------------------------------------------------------------------------
# subcommands


def cmd_invariants(args) -> int:
    fmt, lmax = _fmt(args), _lmax(args)
    p = load_presentation(args.file)
    canonical = p.canonical_bytes()   # rendered once: the cache key and the record's hash
    cache_file = None
    if not (args.no_cache or os.environ.get(ENV_PREFIX + "NO_CACHE") == "1"):
        cache_file = _cache_path(_option(args, "cache_dir", None), lmax, canonical)
    record = _cache_read(cache_file) if cache_file else None
    if record is None:
        record = _invariant_record(p, canonical, lmax)
        if cache_file:
            _cache_write(cache_file, record)
    _print_record(record, fmt)
    return 0


def cmd_classes(args) -> int:
    from .partitions import Stabilization, build_chain, chain_to_json

    fmt, lmax = _fmt(args), _lmax(args)
    p = load_presentation(args.file)
    payload = {"presentation": p.content_hash(), **chain_to_json(build_chain(p, lmax))}
    if fmt == "json":
        _emit_json(payload)
        return 0
    lines = ["m-sequence: " + " ".join(str(m) for m in payload["m_sequence"]),
             "stabilization: " + Stabilization(**payload["stabilization"]).render()]
    m_sets = payload["m_sets"]   # a level past the last entry has that entry's sets
    for lv in payload["levels"]:
        lines.append(f"level {lv['level']}: m = {lv['m']}")
        marks = m_sets[min(lv["level"], len(m_sets) - 1)]["persistence"]
        for ci, (cls, mark) in enumerate(zip(lv["classes"], marks, strict=True)):
            members = ", ".join(cls["contexts"][:6])
            if len(cls["contexts"]) > 6:
                members += f", ... ({len(cls['contexts'])} contexts)"
            grades = payload["signatures"][cls["representative"]][:lv["level"] + 1]
            lines.append(f"  class {ci} [{mark}] {{{members}}} {_sig_text(grades)}")
    _emit("\n".join(lines))
    return 0


def _sig_text(grades) -> str:
    parts = []
    for entry in grades:
        k = entry["grade"]
        if "elided" in entry:
            parts.append(f"P{k}=<elided #{entry['rank']}>")
        else:
            words = entry["words"]
            shown = ",".join(words[:5])
            if len(words) > 5:
                shown += f",... ({len(words)} words)"
            parts.append(f"P{k}={{{shown}}}")
    return " ".join(parts)


def cmd_matrices(args) -> int:
    from .partitions import build_chain, matrices_to_json

    fmt, lmax = _fmt(args), _lmax(args)
    p = load_presentation(args.file)
    levels = matrices_to_json(build_chain(p, lmax))
    if fmt == "json":
        _emit_json({"presentation": p.content_hash(), "matrices": levels})
        return 0
    lines = []
    for lv in levels:
        lines.append(f"level {lv['level'] + 1} -> {lv['level']}: "
                     f"{lv['m_next']} classes into {lv['m']}")
        for i, cls in enumerate(lv["classes"]):
            images = "".join(f" {a}->{j}" for a, j in cls["image"].items())
            lines.append(f"  class {i} in {cls['parent']}:{images}")
    _emit("\n".join(lines))
    return 0


def cmd_kgroups(args) -> int:
    from .invariants import k_groups
    from .partitions import build_chain

    fmt = _fmt(args)
    p = load_presentation(args.file)
    kg = k_groups(build_chain(p, 1))   # limit data: the chain's length cannot change it
    if fmt == "json":
        _emit_json({"k0": kg.k0.to_json(), "k1": kg.k1.to_json()})
    else:
        _emit(f"K0: {kg.k0.render()}\nK1: {kg.k1.render()}")
    return 0


def cmd_triple(args) -> int:
    from .invariants import dimension_triple
    from .partitions import build_chain

    fmt = _fmt(args)
    p = load_presentation(args.file)
    payload = dimension_triple(build_chain(p, 1)).to_json()   # limit data, as in kgroups
    if fmt == "json":
        _emit_json(payload)
    else:
        lines = [f"rank: {payload['rank']}"]
        lines.extend(_matrix_lines("step map", payload["step_map"]))
        lines.append("delta mask: " + json.dumps(payload["delta_mask"]))
        _emit("\n".join(lines))
    return 0


# move name -> (descriptor fields after "move", call of the transforms module t
# returning the presentations to write, then the report); a call looks its move up
# in t when it runs, so wrappers apply
MOVES = {
    "higher_block": (("n",), lambda t, p, d: t.higher_block(p, d["n"])),
    "expand": (("a0", "star"), lambda t, p, d: t.symbolic_expansion(p, d["a0"], d["star"])),
    "split": (("f",), lambda t, p, d: t.split_letters(
        p, t.BipartiteExpression.from_mapping(d["f"]))),
}


def cmd_transform(args) -> int:
    fmt = _fmt(args)
    p = load_presentation(args.file)
    try:
        move = json.loads(args.move)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"move descriptor is not valid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ValidationError("move descriptor is nested too deeply") from None
    except ValueError as exc:   # an integer literal past the interpreter's digit limit
        raise ValidationError(f"move descriptor: {str(exc).split(';')[0]}") from None
    if not isinstance(move, dict) or "move" not in move:
        raise ValidationError('move descriptor must be an object with a "move" field')

    kind = move["move"]
    if not (isinstance(kind, str) and kind in MOVES):
        raise ValidationError(f"unknown move {kind!r}")
    fields, call = MOVES[kind]
    if set(move) != {"move", *fields}:
        names = ",".join(f'"{f}"' for f in ("move", *fields))
        raise ValidationError(f"{kind} descriptor fields: {{{names}}}")
    from . import transforms

    *written, report = call(transforms, p, move)
    out = Path(args.out)
    paths = []
    for pres in written:   # split's induced shift goes next to the first, once that is written
        path = out.with_name(out.stem + ".second" + out.suffix) if paths else out
        dump_presentation(pres, path)
        paths.append(path)
    payload = {
        "written": [str(path) for path in paths],
        "report": report.to_json(),
    }
    if fmt == "json":
        _emit_json(payload)
    else:
        lines = [f"wrote {path}" for path in paths]
        lines.append("report: " + json.dumps(report.to_json()))
        _emit("\n".join(lines))
    return 0


def cmd_compare(args) -> int:
    from .invariants import compare_triples, dimension_triple
    from .partitions import build_chain

    fmt = _fmt(args)
    pa = load_presentation(args.file_a)
    pb = pa if args.file_b == args.file_a else load_presentation(args.file_b)
    ta = dimension_triple(build_chain(pa, 1))   # as in kgroups
    tb = ta if pb is pa else dimension_triple(build_chain(pb, 1))
    outcome = compare_triples(ta, tb)
    verdict, witness = outcome.verdict, outcome.witness
    # an equivalent verdict carries an intertwiner, which keeps the K-groups,
    # so b's rows are a's and b's I - S is not factored
    ka, kb = ta.k_groups, (ta.k_groups if verdict == "equivalent" else tb.k_groups)
    rows = [("K0", ka.k0.render(), kb.k0.render()),
            ("K1", ka.k1.render(), kb.k1.render()),
            ("triple rank", str(ta.rank), str(tb.rank))]

    if fmt == "json":
        _emit_json({
            "a": pa.content_hash(),
            "b": pb.content_hash(),
            "rows": [{"name": n, "a": a, "b": b} for (n, a, b) in rows],
            "verdict": verdict,
            "witness": witness,
        })
    else:
        lines = [f"{n}: {a} | {b}" for (n, a, b) in rows]
        lines.append(f"verdict: {verdict}" + (f" ({witness})" if witness else ""))
        _emit("\n".join(lines))
    return outcome.exit_code


def cmd_model_verify(args) -> int:
    from .model import FiniteModel, run_all_checks

    fmt = _fmt(args)
    model = FiniteModel(load_presentation(args.file))
    reports = run_all_checks(model, args.max_word_len)
    if fmt == "json":
        _emit_json([
            {"name": r.name, "checks": r.checks, "violations": r.violations}
            for r in reports
        ])
    else:
        _emit("\n".join(r.render() for r in reports))
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_format(sub):
    sub.add_argument("--format", choices=["table", "json"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftk",
        description="Past-equivalence invariants and K-groups of one-sided shift spaces")
    parser.add_argument("--version", action="version", version=f"shiftk {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn in [("invariants", cmd_invariants), ("classes", cmd_classes),
                     ("matrices", cmd_matrices), ("kgroups", cmd_kgroups),
                     ("triple", cmd_triple)]:
        sub = subs.add_parser(name)
        sub.add_argument("file")
        if name in ("invariants", "classes", "matrices"):   # the commands that show levels
            sub.add_argument("--lmax", type=int, default=None,
                             help=f"partition levels to show (default {DEFAULT_LMAX})")
        _add_format(sub)
        if name == "invariants":    # the only command that reads the cache
            sub.add_argument("--cache-dir", default=None)
            sub.add_argument("--no-cache", action="store_true")
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("transform")
    sub.add_argument("file")
    sub.add_argument("move", help='JSON move descriptor, e.g. {"move":"higher_block","n":2}')
    sub.add_argument("out")
    _add_format(sub)
    sub.set_defaults(fn=cmd_transform)

    sub = subs.add_parser("compare")
    sub.add_argument("file_a")
    sub.add_argument("file_b")
    _add_format(sub)
    sub.set_defaults(fn=cmd_compare)

    sub = subs.add_parser("model")
    model_subs = sub.add_subparsers(dest="model_command", required=True)
    verify = model_subs.add_parser("verify")
    verify.add_argument("file")
    verify.add_argument("--L", dest="max_word_len", type=int, default=3,
                        help="maximum word length for the identity checks")
    _add_format(verify)
    verify.set_defaults(fn=cmd_model_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: every default is None or fixed and the
    environment is read by the commands, so reuse carries no state."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but compare's 2 means inconclusive;
        # the top-level flags take no value, so the first word names the command
        if exc.code == 2 and next((a for a in argv if not a.startswith("-")), None) == "compare":
            sys.exit(3)
        raise
    try:
        return args.fn(args)
    except (ValidationError, ResourceCapError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3 if args.command == "compare" else 2
    except ShiftError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    except Exception as exc:    # a bug; exit 1 would read as a violated identity
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
