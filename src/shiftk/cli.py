"""Command-line front end.

Subcommands: invariants, classes, matrices, kgroups, triple, transform,
compare, model verify.  All file input is the strict JSON presentation
format; identical input and configuration produce byte-identical output.

Exit codes: 0 success; 2 bad input or refused operation; compare uses
0 = no invariant distinguishes, 1 = distinguished, 2 = inconclusive and
3 for bad input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .errors import ResourceCapError, ShiftError, ValidationError
from .invariants import compare_triples, dimension_triple, k_groups
from .model import FiniteModel, run_all_checks
from .partitions import (
    Stabilization,
    action_matrices,
    action_sum,
    bowen_franks_matrix,
    build_chain,
    chain_to_json,
    class_signatures,
    inclusion_matrix,
    matrices_to_json,
    persistence_markers,
)
from .presentations import (
    DEFAULT_CAPS,
    Caps,
    FiniteShift,
    dump_presentation,
    load_presentation,
)
from .transforms import BipartiteExpression, higher_block, split_letters, symbolic_expansion

ENV_PREFIX = "SHIFTK_"
DEFAULT_LMAX = 12

# Raise when the layout or meaning of a cached record changes.
CACHE_SCHEMA = 1


@functools.cache
def _source_hash() -> str:
    """Hash of this package's own sources, so a code change never serves stale records."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class RunConfig:
    lmax: int
    fmt: str
    cache_dir: Path
    no_cache: bool
    caps: Caps

    def fingerprint(self) -> str:
        return json.dumps({
            "lmax": self.lmax,
            "max_contexts": self.caps.max_contexts,
            "max_language_words": self.caps.max_language_words,
            "schema": CACHE_SCHEMA,
            "source": _source_hash(),
            "version": __version__,
        }, sort_keys=True)


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name)


def _config_from(args) -> RunConfig:
    def pick(flag, env_name, default, conv):
        if flag is not None:
            return conv(flag)
        raw = _env(env_name)
        if raw is not None:
            return conv(raw)
        return default

    lmax = pick(getattr(args, "lmax", None), "LMAX", DEFAULT_LMAX, int)
    fmt = pick(getattr(args, "format", None), "FORMAT", "table", str)
    if fmt not in ("table", "json"):
        raise ValidationError(f"unknown output format {fmt!r}")
    cache_dir = pick(getattr(args, "cache_dir", None), "CACHE_DIR",
                     Path.home() / ".cache" / "shiftk", Path)
    no_cache = bool(getattr(args, "no_cache", False)) or _env("NO_CACHE") == "1"
    caps = Caps(
        max_contexts=pick(None, "MAX_CONTEXTS", DEFAULT_CAPS.max_contexts, int),
        max_language_words=pick(None, "MAX_LANGUAGE_WORDS", DEFAULT_CAPS.max_language_words, int),
    )
    if lmax < 1:
        raise ValidationError("lmax must be >= 1")
    return RunConfig(lmax, fmt, Path(cache_dir), no_cache, caps)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2))


# ---------------------------------------------------------------------------
# invariant records and cache


def _matrix_lines(name: str, mat) -> list[str]:
    lines = [f"{name}:"]
    for row in mat.to_lists():
        lines.append("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    return lines


def _invariant_record(p, cfg: RunConfig) -> dict:
    chain = build_chain(p, cfg.lmax)
    triple = dimension_triple(chain)
    kg = triple.k_groups
    return {
        "presentation": p.content_hash(),
        "tool_version": __version__,
        "m_sequence": list(chain.m_sequence),
        "stabilization": asdict(chain.stabilization),
        "k0": kg.k0.to_json(),
        "k0_text": kg.k0.render(),
        "k1": kg.k1.to_json(),
        "k1_text": kg.k1.render(),
        "triple": triple.to_json(),
    }


def _cache_path(cfg: RunConfig, p) -> Path:
    key = hashlib.sha256(p.canonical_bytes() + b"\n" + cfg.fingerprint().encode()).hexdigest()
    return cfg.cache_dir / f"{key}.json"


def _cache_read(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _cache_write(path: Path, record: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort


def _print_record(record: dict, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        _emit_json(record)
        return
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
    cfg = _config_from(args)
    p = load_presentation(args.file, cfg.caps)
    cache_file = _cache_path(cfg, p)
    record = None
    if not cfg.no_cache:
        record = _cache_read(cache_file)
    if record is None:
        record = _invariant_record(p, cfg)
        if not cfg.no_cache:
            _cache_write(cache_file, record)
    _print_record(record, cfg)
    return 0


def cmd_classes(args) -> int:
    cfg = _config_from(args)
    p = load_presentation(args.file, cfg.caps)
    chain = build_chain(p, cfg.lmax)
    if cfg.fmt == "json":
        data = chain_to_json(chain)
        _emit_json({
            "presentation": p.content_hash(),
            "m_sequence": data["m_sequence"],
            "stabilization": data["stabilization"],
            "levels": data["levels"],
            "m_sets": data["m_sets"],
        })
        return 0
    lines = ["m-sequence: " + " ".join(str(m) for m in chain.m_sequence),
             f"stabilization: {chain.stabilization.render()}"]
    for l, lv in enumerate(chain.levels):
        markers = persistence_markers(chain, l)
        signatures = class_signatures(chain, l)
        lines.append(f"level {l}: m = {lv.m}")
        for ci, cls in enumerate(lv.classes):
            mark = markers[ci]
            members = ", ".join(p.render_context(p.contexts[i]) for i in cls.contexts[:6])
            if len(cls.contexts) > 6:
                members += f", ... ({len(cls.contexts)} contexts)"
            sig = _sig_text(p, signatures[ci])
            lines.append(f"  class {ci} [{mark}] {{{members}}} {sig}")
    _emit("\n".join(lines))
    return 0


def _sig_text(p, signature) -> str:
    parts = []
    for k, entry in enumerate(signature):
        if entry[0] == "e":
            parts.append(f"P{k}=<elided #{entry[1]}>")
        else:
            words = entry[1:]
            shown = ",".join(p.alphabet.render_word(w) for w in words[:5])
            if len(words) > 5:
                shown += f",... ({len(words)} words)"
            parts.append(f"P{k}={{{shown}}}")
    return " ".join(parts)


def cmd_matrices(args) -> int:
    cfg = _config_from(args)
    p = load_presentation(args.file, cfg.caps)
    chain = build_chain(p, cfg.lmax)
    if cfg.fmt == "json":
        _emit_json({
            "presentation": p.content_hash(),
            "matrices": matrices_to_json(chain),
        })
        return 0
    lines = []
    for l in range(chain.length):
        lines.append(f"level {l} -> {l + 1}:")
        lines.extend("  " + s for s in _matrix_lines("inclusion", inclusion_matrix(chain, l)))
        for a, mat in sorted(action_matrices(chain, l).items()):
            lines.extend("  " + s for s in _matrix_lines(
                f"action[{p.alphabet.symbols[a]}]", mat))
        lines.extend("  " + s for s in _matrix_lines("action sum", action_sum(chain, l)))
        lines.extend("  " + s for s in _matrix_lines("difference", bowen_franks_matrix(chain, l)))
    _emit("\n".join(lines))
    return 0


def cmd_kgroups(args) -> int:
    cfg = _config_from(args)
    p = load_presentation(args.file, cfg.caps)
    kg = k_groups(build_chain(p, cfg.lmax))
    if cfg.fmt == "json":
        _emit_json({"k0": kg.k0.to_json(), "k1": kg.k1.to_json()})
    else:
        _emit(f"K0: {kg.k0.render()}\nK1: {kg.k1.render()}")
    return 0


def cmd_triple(args) -> int:
    cfg = _config_from(args)
    p = load_presentation(args.file, cfg.caps)
    triple = dimension_triple(build_chain(p, cfg.lmax))
    if cfg.fmt == "json":
        _emit_json(triple.to_json())
    else:
        lines = [f"rank: {triple.rank}"]
        lines.extend(_matrix_lines("step map", triple.step_map))
        lines.append("delta mask: " + json.dumps(list(triple.delta_mask)))
        _emit("\n".join(lines))
    return 0


def cmd_transform(args) -> int:
    cfg = _config_from(args)
    p = load_presentation(args.file, cfg.caps)
    try:
        move = json.loads(args.move)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"move descriptor is not valid JSON: {exc.msg}") from exc
    if not isinstance(move, dict) or "move" not in move:
        raise ValidationError('move descriptor must be an object with a "move" field')

    kind = move["move"]
    outputs = []
    if kind == "higher_block":
        if set(move) != {"move", "n"}:
            raise ValidationError('higher_block descriptor fields: {"move","n"}')
        out, report = higher_block(p, int(move["n"]))
        outputs.append((Path(args.out), out))
    elif kind == "expand":
        if set(move) != {"move", "a0", "star"}:
            raise ValidationError('expand descriptor fields: {"move","a0","star"}')
        out, report = symbolic_expansion(p, move["a0"], move["star"])
        outputs.append((Path(args.out), out))
    elif kind == "split":
        if set(move) != {"move", "f"}:
            raise ValidationError('split descriptor fields: {"move","f"}')
        expr = BipartiteExpression.from_mapping(move["f"])
        union, second, report = split_letters(p, expr)
        out_path = Path(args.out)
        second_path = out_path.with_name(out_path.stem + ".second" + out_path.suffix)
        outputs.append((out_path, union))
        outputs.append((second_path, second))
    else:
        raise ValidationError(f"unknown move {kind!r}")

    for path, pres in outputs:
        dump_presentation(pres, path)
    payload = {
        "written": [str(path) for (path, _) in outputs],
        "report": report.to_json(),
    }
    if cfg.fmt == "json":
        _emit_json(payload)
    else:
        lines = [f"wrote {path}" for (path, _) in outputs]
        lines.append("report: " + json.dumps(report.to_json()))
        _emit("\n".join(lines))
    return 0


def cmd_compare(args) -> int:
    cfg = _config_from(args)
    pa = load_presentation(args.file_a, cfg.caps)
    pb = load_presentation(args.file_b, cfg.caps)
    ta, tb = (dimension_triple(build_chain(p, cfg.lmax)) for p in (pa, pb))
    rows = [("K0", ta.k_groups.k0.render(), tb.k_groups.k0.render()),
            ("K1", ta.k_groups.k1.render(), tb.k_groups.k1.render()),
            ("triple rank", str(ta.rank), str(tb.rank))]
    outcome = compare_triples(ta, tb)
    verdict, witness = outcome.verdict, outcome.witness

    if cfg.fmt == "json":
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
    cfg = _config_from(args)
    p = load_presentation(args.file, cfg.caps)
    if not isinstance(p, FiniteShift):
        sys.stderr.write("error: model verification needs a finite presentation\n")
        return 2
    model = FiniteModel(p)
    reports = run_all_checks(model, args.max_word_len)
    if cfg.fmt == "json":
        _emit_json([
            {"name": r.name, "checks": r.checks, "violations": r.violations}
            for r in reports
        ])
    else:
        _emit("\n".join(r.render() for r in reports))
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--lmax", type=int, default=None,
                     help=f"partition levels to show (default {DEFAULT_LMAX})")
    sub.add_argument("--format", choices=["table", "json"], default=None)
    sub.add_argument("--cache-dir", default=None)
    sub.add_argument("--no-cache", action="store_true")


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
        _add_common(sub)
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("transform")
    sub.add_argument("file")
    sub.add_argument("move", help='JSON move descriptor, e.g. {"move":"higher_block","n":2}')
    sub.add_argument("out")
    _add_common(sub)
    sub.set_defaults(fn=cmd_transform)

    sub = subs.add_parser("compare")
    sub.add_argument("file_a")
    sub.add_argument("file_b")
    _add_common(sub)
    sub.set_defaults(fn=cmd_compare)

    sub = subs.add_parser("model")
    model_subs = sub.add_subparsers(dest="model_command", required=True)
    verify = model_subs.add_parser("verify")
    verify.add_argument("file")
    verify.add_argument("--L", dest="max_word_len", type=int, default=3,
                        help="maximum word length for the identity checks")
    _add_common(verify)
    verify.set_defaults(fn=cmd_model_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: every default is None or fixed and the
    environment is read in ``_config_from``, so reuse carries no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, ResourceCapError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3 if args.command == "compare" else 2
    except ShiftError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
