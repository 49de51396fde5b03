"""gapcraft benchmark: one closed-loop client driving the package's public API.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_rotated --seed 0 --seconds 50 --trace 0

One process runs items back to back, each starting when the previous one
returns, for ``--seconds`` (finishing the current cycle of items). Inputs are
drawn from ``--seed`` before the timed section. With ``--trace 0`` the
timings are untraced and the end-to-end metrics are reported; with
``--trace 1`` every public function of the measured layers is wrapped with
a span and the per-layer metrics are reported instead, and the spans are
written to ``perfbench/out/``. The last line of standard output is the
result as JSON; the line before it carries details that are not metrics
(tail latency, holdout errors, machine facts).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3  # set-ups per untraced run: this process plus two children
WINDOW_S = 1.0  # items_per_s is the median over windows of at least this long
TAIL_BEYOND = 10  # items a reported tail percentile must leave above it
LABEL_SIZES = range(2, 6)

# span name -> stats reported for it; see README.md for what each should move
SPAN_STATS = {
    "transport.sinkhorn": ("calls", "busy_s", "p50_ms"),
    "transport.cost_matrix": ("calls", "busy_s", "p50_ms"),
    "transport.fa_loss_and_grad": ("calls", "self_s"),
    "transport.exact_w1": ("calls", "busy_s", "p50_ms"),
    "distortion.fld_exact": ("calls", "busy_s"),
    "distortion.pseudo_label_stats": ("calls", "busy_s", "p50_ms"),
    "bound.evaluate_bound": ("calls", "busy_s", "self_s"),
    "bound.verify_proof_terms": ("calls", "self_s"),
    "bound.tf_closed_form": ("calls", "busy_s", "p50_ms"),
    "numgrad.backward": ("calls", "busy_s", "p50_ms"),
    "models.mlp_apply": ("calls", "busy_s", "p50_ms"),
    "lipschitz.recalibrate_head": ("calls", "busy_s", "self_s"),
    "lipschitz.penalty_value": ("calls", "busy_s", "p50_ms"),
    "pipeline.run_pipeline": ("calls", "self_s"),
    "pipeline.pretrain_source": ("calls", "busy_s", "self_s"),
    "pipeline.stage1": ("calls", "busy_s", "self_s"),
    "pipeline.stage2": ("calls", "busy_s", "self_s"),
    "pipeline.induced_predictor_error": ("calls", "busy_s", "p50_ms"),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms"}


def shape_key(n: int, m: int) -> int:
    return 10 * n + m


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{span}.{stat}": UNITS[stat]
        for span, stats in SPAN_STATS.items()
        for stat in stats
    }
    units.update({
        "transport.sinkhorn.iters_p50": "count",
        "transport.sinkhorn.us_per_iter": "us",
        "transport.sinkhorn.unconverged": "count",
        "bound.evaluate_bound.calls_per_instance": "count",
        "pipeline.stage1.epoch_ms": "ms",
        "bench.items_per_s": "1/s",
    })
    for n in LABEL_SIZES:
        for m in LABEL_SIZES:
            for stat, unit in (("calls", "count"), ("p50_ms", "ms"), ("cold_ms", "ms")):
                units[f"distortion.fld_exact.{stat}.{n}x{m}"] = unit
    return units


END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "peak_rss_mb": "MB"}


# -- tracing -------------------------------------------------------------------


def install_tracer(tracer) -> None:
    """Wrap the measured public functions of every layer."""
    import importlib

    import numpy as np

    def effective_shape(w, q, *_):
        return shape_key(int(np.count_nonzero(np.asarray(w) > 0)),
                         int(np.count_nonzero(np.asarray(q) > 0)))

    def sinkhorn_done(res):
        if not res.converged:
            tracer.count("transport.sinkhorn.unconverged")
        return res.n_iter

    def stage1_epochs(*args):
        n1, n2, _ = args[5].effective_epochs()  # stage1(phi, theta, head, proxy, target, cfg, ...)
        return n1 + n2

    hooks = {
        "transport.sinkhorn": {"on_result": sinkhorn_done},
        "distortion.fld_exact": {"attr_of_args": effective_shape},
        "pipeline.stage1": {"attr_of_args": stage1_epochs},
    }
    owners = {name: importlib.import_module(f"gapcraft.{name.split('.')[0]}") for name in SPAN_STATS}
    modules = [m for name, m in sys.modules.items() if name.startswith("gapcraft.")]
    for name, owner in owners.items():
        attr = name.split(".")[1]
        if name == "numgrad.backward":  # a method, so it is wrapped on the class
            owner = owner.Tape
        tracer.patch(owner, attr, name, modules, **hooks.get(name, {}))


def layer_metrics(tracer, first: int, n_items: int, items_per_s: float) -> dict[str, float]:
    """Per-layer values over the timed spans (cold times over all spans)."""
    from tracing import SpanStats

    stats = SpanStats(tracer.spans, first)
    values: dict[str, float] = {}
    for span, names in SPAN_STATS.items():
        for stat in names:
            if stat == "calls":
                values[f"{span}.calls"] = stats.calls(span)
            elif stat == "busy_s":
                values[f"{span}.busy_s"] = stats.busy_s(span)
            elif stat == "self_s":
                values[f"{span}.self_s"] = stats.self_s.get(span, 0.0)
            else:
                values[f"{span}.p50_ms"] = stats.p50_ms(span)

    iters = stats.attrs.get("transport.sinkhorn", [])
    values["transport.sinkhorn.iters_p50"] = statistics.median(iters) if iters else 0
    values["transport.sinkhorn.us_per_iter"] = (
        1e6 * stats.busy_s("transport.sinkhorn") / sum(iters) if iters else 0.0
    )
    values["transport.sinkhorn.unconverged"] = tracer.counts.get("transport.sinkhorn.unconverged", 0)
    values["bound.evaluate_bound.calls_per_instance"] = stats.calls("bound.evaluate_bound") / n_items
    epochs = sum(stats.attrs.get("pipeline.stage1", []))
    values["pipeline.stage1.epoch_ms"] = 1e3 * stats.busy_s("pipeline.stage1") / epochs if epochs else 0.0
    values["bench.items_per_s"] = items_per_s

    cold: dict[int, float] = {}
    for name, start, end, _, _, attr in tracer.spans:
        if name == "distortion.fld_exact" and attr not in cold:
            cold[attr] = 1e3 * (end - start)
    for n in LABEL_SIZES:
        for m in LABEL_SIZES:
            key, tag = shape_key(n, m), f"{n}x{m}"
            values[f"distortion.fld_exact.calls.{tag}"] = stats.calls_with("distortion.fld_exact", key)
            values[f"distortion.fld_exact.p50_ms.{tag}"] = stats.p50_ms("distortion.fld_exact", key)
            values[f"distortion.fld_exact.cold_ms.{tag}"] = cold.get(key, 0.0)
    return values


# -- set-up, timed loop, checks -------------------------------------------------


class SetupError(RuntimeError):
    """The package or the benchmark's inputs could not be prepared."""


def setup(workload: str, seed: int, tracer=None):
    """Import, draw the inputs and make the first call into each layer.

    Returns (workload, inputs, seconds taken).
    """
    start = time.perf_counter()
    try:
        import gapcraft
    except ImportError as exc:
        raise SetupError(f"gapcraft is not importable from {SRC}: {exc}") from exc
    if not Path(gapcraft.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"gapcraft was imported from {gapcraft.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]
    if tracer is not None:
        install_tracer(tracer)
    pool = wl.make_inputs(seed)
    wl.warm(pool)
    return wl, pool, time.perf_counter() - start


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, so imports are cold too."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def closed_loop(wl, pool, seconds: float, max_items: int | None, tracer=None):
    """Run items back to back; returns (outputs, latencies, wall seconds).

    An item that raises yields the output None. Without ``max_items`` the
    loop runs until ``seconds`` have passed and a cycle of items is complete.
    """
    outputs, latencies = [], []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        if max_items is not None:
            if i >= max_items:
                break
        elif clock() - start >= seconds and i % wl.cycle == 0:
            break
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out = wl.run(pool[i % len(pool)])
        except Exception:  # a failing item is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
        latencies.append(clock() - t0)
        outputs.append(out)
        i += 1
    return outputs, latencies, clock() - start


def window_rate(latencies: list[float]) -> float:
    """Median items per second over runs of consecutive items lasting at least
    WINDOW_S each, so a few seconds of a busy host move it less than the mean.
    An item longer than WINDOW_S is a window of its own; a short last window
    is dropped unless it is the only one.
    """
    rates, n, busy = [], 0, 0.0
    for latency in latencies:
        n, busy = n + 1, busy + latency
        if busy >= WINDOW_S:
            rates.append(n / busy)
            n, busy = 0, 0.0
    if not rates:
        rates.append(n / busy)
    return statistics.median(rates)


def tail_ms(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, ms): the highest of p90, p99, p99.9 with enough items above."""
    n = len(latencies)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            ranked = sorted(latencies)
            return p, 1e3 * ranked[min(n - 1, math.ceil(n * p / 100.0) - 1)]
    return None


# -- facts about the machine and the code ------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "git_commit": _git_commit(),
    }


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pipeline_rotated", "pipeline_nft", "bound_verify", "fld_wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="run exactly this many items instead of timing --seconds")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # One BLAS thread: the client is one single-threaded process.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

    sys.path[:0] = [str(SRC), str(HERE)]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        wl, pool, setup_s = setup(args.workload, args.seed, tracer)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    if not args.trace:
        setups += [child_setup_s(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]

    first = 0
    if tracer is not None:
        first = len(tracer.spans)
        tracer.counts.clear()
    outputs, latencies, wall_s = closed_loop(wl, pool, args.seconds, args.items, tracer)
    if tracer is not None:
        tracer.unpatch()

    checks = [out is not None and wl.check(pool[i % len(pool)], out)
              for i, out in enumerate(outputs)]
    attempted, failed = len(outputs), checks.count(False)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": wall_s,
        "items_per_wall_s": attempted / wall_s,
        "failed_frac": failed / attempted,
        "setup_s_samples": setups,
        "machine": machine_facts(),
    }
    tail = tail_ms(latencies)
    if tail is not None:
        detail["item_tail_ms"] = {"percentile": tail[0], "value": tail[1]}
    finished = [out for out in outputs if out is not None]
    if wl.name.startswith("pipeline") and finished:
        detail["holdout_errors"] = outputs
        detail["holdout_error"] = statistics.fmean(finished)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": window_rate(latencies),
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        values = layer_metrics(tracer, first, attempted, window_rate(latencies))
        units = per_layer_units()
        calls = values["transport.sinkhorn.calls"]
        if calls:
            detail["sinkhorn_unconverged_frac"] = values["transport.sinkhorn.unconverged"] / calls
        missed = [name for name in wl.expected if values[f"{name}.calls"] == 0]
        if missed:
            print(f"error: traced {wl.name} recorded no calls to {', '.join(missed)}",
                  file=sys.stderr)
            return 1
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
