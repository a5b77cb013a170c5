"""The benchmark's gated workloads run against this tree, traced, with no failure.

One pass of each workload in ``BENCHMARK.json`` goes through perfbench's
own ``Session`` with its ``Tracer`` installed, on the shiftk modules this
suite already imported (``perfbench/run.py``'s ``Lib`` would purge and
re-import them).  A library change that breaks what the benchmark calls,
or hides a call from the tracer, fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from shiftk import cli, intlinalg, invariants, model, partitions, presentations, transforms

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Session  # noqa: E402

LIB = SimpleNamespace(cli=cli, intlinalg=intlinalg, invariants=invariants, model=model,
                      partitions=partitions, presentations=presentations, transforms=transforms)


@pytest.mark.parametrize("name", ["cli-session", "bowen-franks", "operator-model"])
def test_one_traced_pass_has_no_failure_and_no_wrong_answer(name, tmp_path):
    workload = WORKLOADS[name](LIB, 1, tmp_path)
    workload.prepare()
    session, tracer = Session(), Tracer()
    tracer.install(LIB)
    session.tracer = tracer
    try:
        workload.run_pass(session)
    finally:
        session.tracer = None
        tracer.uninstall()
    assert session.ops and all(op.ok for op in session.ops)
    assert (session.failures, session.wrong) == ([], [])
    if name == "cli-session":
        names = {span[4] for span in tracer.spans}
        assert {"main", "parse", "build_chain", "higher_block", "compare"} <= names
