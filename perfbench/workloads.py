"""The benchmark's workloads: seeded inputs, one pass of operations, answer checks.

Every workload is a closed loop with one client: an operation starts when
the previous one has returned.  Inputs come from ``random.Random(seed)``
only, so the same seed gives the same inputs.  The library is reached
through module attributes at call time (``lib.partitions.build_chain``), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import oracles

# An operation that takes longer than this fails.  Every passing operation
# of the three gated workloads takes well under a tenth of it on a 2-core
# Xeon, so the failure count repeats exactly.
DEADLINE_S = 30.0


class DeadlineExceeded(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the running code after ``seconds``."""
    def expire(signum, frame):
        raise DeadlineExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    op_id: int
    pass_index: int
    kind: str
    case: str
    seconds: float     # wall time
    cpu: float         # CPU time of the program, in host seconds (see calibration.py)
    ok: bool


class Session:
    """One run's operations, failed operations and wrong answers."""

    def __init__(self, deadline_s: float = DEADLINE_S, clock=time.thread_time):
        self.deadline_s = deadline_s
        self.clock = clock       # the program's CPU clock
        self.tracer = None       # set only during traced passes
        self.pass_index = 0
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.wrong: list[str] = []

    def run(self, kind: str, case: str, fn):
        """Time ``fn()`` as one operation; return (ok, result)."""
        op_id = len(self.ops)
        if self.tracer is not None:
            self.tracer.op = op_id
        result, ok = None, False
        t0, c0 = time.perf_counter(), self.clock()
        try:
            with deadline(self.deadline_s):
                result = fn()
            ok = True
        except DeadlineExceeded:
            self.failures.append(f"{case} ({kind}): missed the {self.deadline_s:g} s deadline")
        except Exception as exc:  # an operation's error is a failed operation, not a crash
            self.failures.append(f"{case} ({kind}): {type(exc).__name__}: {exc}")
        elapsed, cpu = time.perf_counter() - t0, self.clock() - c0
        if self.tracer is not None:
            self.tracer.op = None
        self.ops.append(Op(op_id, self.pass_index, kind, case, elapsed, cpu, ok))
        return ok, result

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.wrong.append(message)


def call_cli(lib, argv: list[str]) -> tuple[int, str]:
    """Run ``shiftk`` in-process; return the exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# input generators


def vertex_adjacency(rng: random.Random, n: int, density: float = 0.3) -> list[list[int]]:
    """Random 0/1 matrix over a random permutation, so every vertex is live."""
    a = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        a[i][perm[i]] = 1
    return a


def regular_adjacency(rng: random.Random, n: int, d: int) -> list[list[int]]:
    """Random d-in, d-out regular 0/1 matrix: every vertex has d^k words of length k
    arriving, so the cost of enumerating them hardly depends on the seed."""
    p, q = list(range(n)), list(range(n))
    rng.shuffle(p)
    rng.shuffle(q)
    return [[1 if (q[j] - p[i]) % n < d else 0 for j in range(n)] for i in range(n)]


def memory_sft(rng: random.Random, m: int, density: float = 0.3) -> dict:
    """Binary SFT forbidding words of length m+1, never the factors of one periodic point."""
    keep_word = "".join(rng.choice("01") for _ in range(m + 1))
    doubled = keep_word * 2
    keep = {doubled[i:i + m + 1] for i in range(m + 1)}
    words = [format(i, f"0{m + 1}b") for i in range(2 ** (m + 1))]
    forbidden = [list(w) for w in words if w not in keep and rng.random() < density]
    return {"type": "sft", "alphabet": ["0", "1"], "forbidden": forbidden}


def allowed_words(forbidden, m: int, length: int) -> int:
    """Number of binary words of ``length`` avoiding the forbidden words of length m+1."""
    banned = {"".join(w) for w in forbidden}
    counts = dict.fromkeys((format(i, f"0{m}b") for i in range(2 ** m)), 1)
    for _ in range(length - m):
        nxt = dict.fromkeys(counts, 0)
        for state, c in counts.items():
            for a in "01":
                if state + a not in banned:
                    nxt[state[1:] + a] += c
        counts = nxt
    return sum(counts.values())


# The cost of a memory-m file (its tower up to lmax 12 and the comparison
# with its 2-block recoding) grows with its number of words of length 12
# and levels off above about 500.  The generator keeps that number in one
# band on the flat part, so the cost of a file hardly depends on the seed.
MEMORY_WORDS_BAND = (500, 1000)


def banded_memory_sft(rng: random.Random, m: int) -> dict:
    low, high = MEMORY_WORDS_BAND
    while True:
        obj = memory_sft(rng, m)
        if low <= allowed_words(obj["forbidden"], m, 12) <= high:
            return obj


def transition_monoid_size(k: int, edges, limit: int) -> int:
    """Number of boolean matrices of words over the graph, counted up to ``limit``."""
    letters = {}
    for q, r, a in edges:
        rows = letters.setdefault(a, [0] * k)
        rows[int(q[1:])] |= 1 << int(r[1:])
    identity = tuple(1 << q for q in range(k))
    seen, frontier = {identity}, [identity]
    while frontier and len(seen) <= limit:
        nxt = []
        for mat in frontier:
            for rows in letters.values():
                prod = []
                for row in mat:
                    out = 0
                    for q in range(k):
                        if row >> q & 1:
                            out |= rows[q]
                    prod.append(out)
                prod = tuple(prod)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


# Parsing a sofic graph builds its transition monoid, and shiftk refuses a
# graph whose monoid exceeds the default context cap (4096).  The generator
# keeps the monoid size in one narrow band, far below the cap even after a
# 2-block recoding, so no operation is a refusal.  Every call, a cache hit
# too, parses the file, so the band also keeps the cost of a sofic hit below
# that of the largest vertex file, whatever the seed: op_p90_ms then falls
# among that file's hits, not on whichever sofic graph the seed made largest.
SOFIC_MONOID_BAND = (48, 80)


def sofic_graph(rng: random.Random, k: int) -> dict:
    """A labelled cycle through all k states plus k/2 random edges, labels a/b."""
    states = [f"s{i}" for i in range(k)]
    low, high = SOFIC_MONOID_BAND
    while True:
        edges = {(states[i], states[(i + 1) % k], rng.choice("ab")) for i in range(k)}
        for _ in range(round(k / 2)):
            edges.add((rng.choice(states), rng.choice(states), rng.choice("ab")))
        if low <= transition_monoid_size(k, edges, high) <= high:
            return {"type": "sofic", "states": states,
                    "edges": [list(e) for e in sorted(edges)]}


def finite_shift(rng: random.Random, n_points: int) -> tuple[dict, set]:
    """A periodic orbit of period 1-3 plus preperiodic tails, binary alphabet."""
    while True:
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        if all(w != w[i:] + w[:i] for i in range(1, len(w))):
            break
    points = {("", w[i:] + w[:i]) for i in range(len(w))}
    while len(points) < n_points:
        pre, per = rng.choice(sorted(points))
        a = rng.choice("01")
        if pre or a != per[-1]:  # else a.x is a point of the orbit already
            points.add((a + pre, per))
    obj = {"type": "finite", "alphabet": ["0", "1"],
           "points": [{"pre": list(pre), "per": list(per)} for pre, per in sorted(points)]}
    return obj, points


def canonical_record(record: dict) -> tuple:
    """The invariants a correct change may not alter (never raw step maps)."""
    st = record["stabilization"]
    triple = record.get("triple")
    return (json.dumps(record.get("k0"), sort_keys=True),
            json.dumps(record.get("k1"), sort_keys=True),
            tuple(record["m_sequence"]), st["stable"], st["level"],
            triple["rank"] if triple else None)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class CorpusFile:
    name: str
    path: Path
    small: bool
    adjacency: list | None = None
    expected: dict | None = None


class CliSession:
    """The user's path: ``shiftk`` commands on files, one fresh cache per pass."""

    VERTEX = ((8, 3), (8, 2), (16, 2), (24, 2))    # (n, degree)
    MEMORY = (3, 4, 5)
    SOFIC = (4, 5, 6, 7, 8)
    SMALL = 6                 # memory-m and sofic files up to this size also get
                              # transform + compare
    HITS = 40                 # cache-hit rounds over all files per pass

    def __init__(self, lib, seed: int, work: Path):
        self.lib = lib
        self.work = work
        rng = random.Random(seed)
        corpus_dir = work / "corpus"
        corpus_dir.mkdir(parents=True)
        self.files: list[CorpusFile] = []
        for n, d in self.VERTEX:
            adj = regular_adjacency(rng, n, d)
            self._write(corpus_dir, f"vertex{n}d{d}", {"type": "sft_matrix", "adjacency": adj},
                        small=False, adjacency=adj)
        for m in self.MEMORY:
            self._write(corpus_dir, f"memory{m}", banded_memory_sft(rng, m),
                        small=m <= self.SMALL)
        for k in self.SOFIC:
            self._write(corpus_dir, f"sofic{k}", sofic_graph(rng, k), small=k <= self.SMALL)
        self.pinned: dict[str, tuple] = {}

    def _write(self, corpus_dir: Path, name: str, obj: dict, small: bool, adjacency=None):
        path = corpus_dir / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        self.files.append(CorpusFile(name, path, small, adjacency))

    def prepare(self) -> None:
        for f in self.files:
            if f.adjacency is not None:
                f.expected = oracles.vertex_k_groups(f.adjacency)

    def _check_record(self, s: Session, f: CorpusFile, record: dict) -> None:
        if f.expected is not None:
            k0, k1 = record.get("k0"), record.get("k1")
            s.expect(k0 is not None and oracles.group_matches(k0, f.expected),
                     f"{f.name}: K0 {k0} disagrees with det/rank of I - A {f.expected}")
            s.expect(k1 == {"free_rank": f.expected["free_rank"], "torsion": []},
                     f"{f.name}: K1 {k1} disagrees with the rank of I - A {f.expected}")
        canon = canonical_record(record)
        s.expect(self.pinned.setdefault(f.name, canon) == canon,
                 f"{f.name}: invariants changed between passes")

    def run_pass(self, s: Session) -> None:
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=self.work))
        try:
            self._pass(s, cache, out_dir)
        finally:
            shutil.rmtree(cache)
            shutil.rmtree(out_dir)

    def _pass(self, s: Session, cache: Path, out_dir: Path) -> None:
        cold_text = {}
        for f in self.files:
            before = len(list(cache.iterdir()))
            ok, res = s.run("cold", f.name, lambda: call_cli(self.lib, [
                "invariants", str(f.path), "--cache-dir", str(cache), "--format", "json"]))
            if not ok:
                continue
            code, text = res
            s.expect(code == 0, f"{f.name}: invariants exited {code}")
            s.expect(len(list(cache.iterdir())) == before + 1,
                     f"{f.name}: the cold call wrote no cache record, so it did not compute")
            record = json.loads(text)
            cold_text[f.name] = text
            self._check_record(s, f, record)
            if f.small:
                self._recoding(s, f, record, out_dir)

        for _ in range(self.HITS):
            for f in self.files:
                if f.name not in cold_text:
                    continue
                ok, res = s.run("hit", f.name, lambda: call_cli(self.lib, [
                    "invariants", str(f.path), "--cache-dir", str(cache), "--format", "json"]))
                if ok:
                    s.expect(res == (0, cold_text[f.name]),
                             f"{f.name}: a cache hit printed something else than the cold record")

    def _recoding(self, s: Session, f: CorpusFile, record: dict, out_dir: Path) -> None:
        out = out_dir / f"{f.name}.hb2.json"
        ok, res = s.run("transform", f.name, lambda: call_cli(self.lib, [
            "transform", str(f.path), '{"move": "higher_block", "n": 2}', str(out),
            "--format", "json"]))
        if not ok:
            return
        s.expect(res[0] == 0 and out.is_file(), f"{f.name}: higher_block wrote no file")
        ok, res = s.run("compare", f.name, lambda: call_cli(self.lib, [
            "compare", str(f.path), str(out), "--format", "json"]))
        if not ok:
            return
        code, text = res
        result = json.loads(text)
        s.expect(result["verdict"] != "distinguished" and code in (0, 2),
                 f"{f.name}: compare distinguished a recoding ({result['witness']})")
        rows = {row["name"]: (row["a"], row["b"]) for row in result["rows"]}
        if record.get("k0") is not None:
            s.expect(rows.get("K0") == (record["k0_text"], record["k0_text"])
                     and rows.get("K1") == (record["k1_text"], record["k1_text"]),
                     f"{f.name}: K0/K1 differ from those of its 2-block recoding: {rows}")


@dataclass
class BfCase:
    name: str
    obj: dict
    relabelled: dict
    adjacency: list
    expected: dict | None = None


class BowenFranks:
    """Library chain on vertex shifts at lmax 2, where the Smith normal forms dominate."""

    SIZES = (18, 20, 22) * 20
    LMAX = 2

    def __init__(self, lib, seed: int, work: Path):
        self.lib = lib
        rng = random.Random(seed)
        self.cases = []
        for index, n in enumerate(self.SIZES):
            adj = vertex_adjacency(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = [[adj[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            self.cases.append(BfCase(
                f"vertex{n}-{index}", {"type": "sft_matrix", "adjacency": adj},
                {"type": "sft_matrix", "adjacency": relabelled}, adj))

    def prepare(self) -> None:
        for case in self.cases:
            case.expected = oracles.vertex_k_groups(case.adjacency)

    def _chain(self, case: BfCase):
        lib = self.lib
        p = lib.presentations.parse_presentation(case.obj)
        chain = lib.partitions.build_chain(p, self.LMAX)
        kg = lib.invariants.k_groups(chain)
        triple = lib.invariants.dimension_triple(chain)
        q = lib.presentations.parse_presentation(case.relabelled)
        triple_q = lib.invariants.dimension_triple(lib.partitions.build_chain(q, self.LMAX))
        return kg, lib.invariants.compare_triples(triple, triple_q)

    def run_pass(self, s: Session) -> None:
        for case in self.cases:
            ok, res = s.run("case", case.name, lambda: self._chain(case))
            if not ok:
                continue
            kg, outcome = res
            s.expect(oracles.group_matches(kg.k0.to_json(), case.expected),
                     f"{case.name}: K0 {kg.k0.render()} disagrees with det/rank of I - A "
                     f"{case.expected}")
            s.expect(kg.k1.to_json() == {"free_rank": case.expected["free_rank"], "torsion": []},
                     f"{case.name}: K1 {kg.k1.render()} disagrees with the rank of I - A")
            s.expect(outcome.verdict != "distinguished",
                     f"{case.name}: compare distinguished a relabelling ({outcome.witness})")


class BowenFranksHard(BowenFranks):
    """Sizes whose Smith normal form does not finish today; not a gated workload."""

    SIZES = (24, 32, 40, 48)


@dataclass
class ModelCase:
    name: str
    presentation: object
    max_len: int
    points: set
    expected: dict | None = None


class OperatorModel:
    """Exact operator-model identity checks on finite shifts."""

    # (points, word length L, distinct cylinder indicators).  The cost of the
    # composition checks grows with the number of distinct test functions, so
    # each model keeps the most common count for its size and the cost of a
    # pass hardly depends on the seed.
    # A quarter of the models are at L = 3 and cost about three times as much,
    # so op_p50_ms falls inside the L = 2 models and op_p90_ms inside
    # the L = 3 ones, never on the step between them.
    MODELS = ((5, 2, 11),) * 9 + ((5, 3, 13),) * 3

    def __init__(self, lib, seed: int, work: Path):
        rng = random.Random(seed)
        self.lib = lib
        self.cases = []
        for index, (n_points, max_len, n_indicators) in enumerate(self.MODELS):
            while True:
                obj, points = finite_shift(rng, n_points)
                if len(oracles.cylinder_indicators(points, "01", max_len)) == n_indicators:
                    break
            self.cases.append(ModelCase(f"finite{n_points}-L{max_len}-{index}",
                                        lib.presentations.parse_presentation(obj),
                                        max_len, points))

    def prepare(self) -> None:
        for case in self.cases:
            case.expected = oracles.model_check_counts(case.points, "01", case.max_len)

    def run_pass(self, s: Session) -> None:
        model = self.lib.model
        for case in self.cases:
            ok, reports = s.run("model", case.name, lambda: model.run_all_checks(
                model.FiniteModel(case.presentation), case.max_len))
            if not ok:
                continue
            counts = {r.name: r.checks for r in reports}
            s.expect(all(r.ok for r in reports),
                     f"{case.name}: identity violated: {[r.render() for r in reports]}")
            s.expect(counts == case.expected,
                     f"{case.name}: check counts {counts} differ from {case.expected}")

    def checks_per_pass(self) -> int:
        return sum(sum(c.expected.values()) for c in self.cases)


WORKLOADS = {
    "cli-session": CliSession,
    "bowen-franks": BowenFranks,
    "operator-model": OperatorModel,
    "bowen-franks-hard": BowenFranksHard,
}
