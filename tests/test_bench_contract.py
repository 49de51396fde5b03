"""What the benchmark in ``perfbench/`` relies on in the package.

The traced benchmark wraps gapcraft functions by the names in
``run.py``'s ``SPAN_STATS`` and in each workload's ``expected`` spans, and
its hooks read arguments by position.  A refactor that renames or moves
one of them breaks the traced runs, which Tier-1 does not execute; these
tests read the benchmark's files, without changing them, and check each
name and position against the package.  The workloads also read fields of
the results they get back, which a refactor must keep, and a traced run
fails unless every span a workload expects is called, which one traced
item of each benchmarked workload checks here.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from gapcraft import bound, distortion, pipeline, transport

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    key = f"perfbench_{name}"
    if key not in sys.modules:  # a dataclass looks its module up there
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def _spans() -> list[str]:
    names = set(_load("run").SPAN_STATS)
    for workload in _load("workloads").WORKLOADS.values():
        names |= set(workload.expected)
    return sorted(names)


def test_span_names_found():
    assert {"bound.tf_closed_form", "numgrad.backward", "pipeline.stage1"} <= set(_spans())


@pytest.mark.parametrize("span", _spans())
def test_every_span_resolves_to_a_gapcraft_attribute(span):
    """``<module>.<name>`` is a function of ``gapcraft.<module>``; the one
    method, ``numgrad.backward``, is ``Tape.backward``."""
    module, name = span.split(".")
    owner = importlib.import_module(f"gapcraft.{module}")
    if span == "numgrad.backward":
        owner = owner.Tape
    assert callable(getattr(owner, name, None)), span


def test_hooked_arguments_sit_where_the_tracer_reads_them():
    """The stage-1 hook reads ``cfg`` as the sixth argument and calls its
    ``effective_epochs``, the fld_exact hook reads ``(w, q)`` first, and the
    Sinkhorn hook reads ``converged`` and ``n_iter`` from the result."""
    stage1 = list(inspect.signature(pipeline.stage1).parameters)
    assert stage1[5] == "cfg"
    assert callable(getattr(pipeline.PipelineConfig, "effective_epochs", None))
    assert list(inspect.signature(distortion.fld_exact).parameters)[:2] == ["w", "q"]
    fields = transport.SinkhornResult.__dataclass_fields__
    assert {"converged", "n_iter"} <= set(fields)


def test_result_fields_the_workloads_read_exist():
    """``fld_wide`` reads ``fld`` and ``coupling`` from ``fld_exact``;
    ``bound_verify`` reads the gap and six terms of a BoundReport and the
    four proof terms."""
    assert {"fld", "coupling"} <= set(distortion.FldExact.__dataclass_fields__)
    report = {"err_s", "err_tau", "fa", "e_fld", "e_tf", "rhs", "gap"}
    assert report <= set(bound.BoundReport.__dataclass_fields__)
    terms = {"term_a_lhs", "term_a_rhs", "term_b_lhs", "term_b_rhs"}
    assert terms <= set(bound.ProofTerms.__dataclass_fields__)


# items per call check: one pipeline run, or enough bound instances to reach
# every expected span
CALL_CHECK_ITEMS = {"pipeline_nft": 1, "bound_verify": 16}


def _benchmarked_workloads() -> list[str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


@pytest.mark.parametrize("name", _benchmarked_workloads())
def test_every_expected_span_is_called(name):
    """After the warm-up, a traced item of each workload that BENCHMARK.json
    names calls every span in the workload's ``expected``."""
    run, tracing, workloads = _load("run"), _load("tracing"), _load("workloads")
    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    run.install_tracer(tracer)
    try:
        pool = wl.make_inputs(0)
        wl.warm(pool)
        first = len(tracer.spans)
        for item in pool[: CALL_CHECK_ITEMS[name]]:
            wl.run(item)
    finally:
        tracer.unpatch()
    called = {span[0] for span in tracer.spans[first:]}
    assert set(wl.expected) - called == set()
