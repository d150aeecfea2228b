"""qmme benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qmme checkout; it imports ``qmme`` from ``src/``
and reads the shipped models from ``models/``. The workloads are
``cli-shipped``, ``pipeline-shipped`` and ``scaled-r3`` (see README.md).

A run sets up its inputs several times (``setup_s`` is the median), then
repeats whole passes of the workload until ``--seconds`` have gone by, at
least one. Each pass is checked. With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics, medians over the passes; with
``--trace 1`` one untraced pass is followed by traced passes, and the
metrics are the per-layer ones. Spans are written to
``.perfbench_out/trace-<workload>-seed<N>.json``.
"""

import os

# one BLAS thread, set before numpy is loaded here or in a child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ".perfbench_out"

END_TO_END = {
    "mix_s": lambda ps: ps.mix,
    "generator_s": lambda ps: ps.stages.get("generator", 0.0),
    "synthesize_s": lambda ps: ps.stages.get("synthesize", 0.0),
    "verified_evolve_s": lambda ps: ps.stages.get("verified_evolve", 0.0),
}

# end-to-end stages that only some workloads run; reported per layer as stage.*
STAGE_METRICS = {
    "stage.reduction_oracle_s": ("reduction_oracle", "s"),
    "stage.selection_check_s": ("selection_check", "s"),
    "stage.certify_s": ("certify", "s"),
    "stage.steady_state_s": ("steady_state", "s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program(root):
    """Import qmme from ``root/src``; None when the checkout has no program."""
    src = root / "src"
    if not (src / "qmme" / "__init__.py").is_file() or not (root / "models").is_dir():
        return None
    sys.path.insert(0, str(src))
    import qmme

    if not Path(qmme.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return qmme


def peak_rss_mb(workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-shipped" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median(values):
    return float(statistics.median(values))


def summarize(ps, label):
    stages = " ".join(f"{k}={v:.3f}/{ps.raw[k]:.3f}" for k, v in sorted(ps.stages.items()))
    print(f"{label}: mix {ps.mix:.3f} s scaled, wall {ps.wall:.3f} s, {ps.attempted} ops, "
          f"{ps.failed} failed, {len(ps.problems)} check problems; stage scaled/raw s: {stages}")
    for line in ps.errors[:10] + ps.problems[:20]:
        print("  " + line)


def write_trace(path, traced):
    """Spans as [name index, start, duration, parent] with times in
    microseconds from the pass's first span, plus the pass's counters."""
    names = {}
    passes = []
    for tracer in traced:
        t0 = min(s for _, s, _, _ in tracer.spans)
        spans = [[names.setdefault(n, len(names)), round((s - t0) * 1e6), round((e - s) * 1e6), p]
                 for n, s, e, p in tracer.spans]
        passes.append({"spans": spans, "counts": tracer.counts, "maxima": tracer.maxima})
    path.write_text(json.dumps({"names": list(names), "passes": passes}))


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if import_program(root) is None:
        print(f"error: {root} is not a qmme checkout (need src/qmme and models/)", file=sys.stderr)
        return 2
    import workloads
    from speed import Gauge
    from tracer import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = workloads.WORKLOADS[args.workload](root, args.seed, out_dir)

    gauge = Gauge()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = gauge.last
        start = time.perf_counter()
        work.setup()
        setup_times.append(gauge.scale(time.perf_counter() - start, before))

    start = time.perf_counter()
    passes = [work.run_pass()]
    summarize(passes[-1], "pass 1")
    while not args.trace and time.perf_counter() - start < args.seconds:
        passes.append(work.run_pass())
        summarize(passes[-1], f"pass {len(passes)}")

    traced_passes, tracers = [], []
    while args.trace and (not tracers or time.perf_counter() - start < args.seconds):
        tracer = Tracer()
        tracer.install()
        try:
            token = tracer.open("stage.setup")
            work.setup()
            tracer.close(token)
            traced_passes.append(work.run_pass(tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        summarize(traced_passes[-1], f"traced pass {len(traced_passes)}")

    every = passes + traced_passes
    result = {
        "correct": not any(ps.problems for ps in every),
        "attempted": sum(ps.attempted for ps in every),
        "failed": sum(ps.failed for ps in every),
    }
    if not args.trace:
        metrics = {"setup_s": {"value": median(setup_times), "unit": "s"}}
        for name, pick in END_TO_END.items():
            metrics[name] = {"value": median([pick(ps) for ps in passes]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(args.workload), "unit": "MB"}
    else:
        per_pass = [layer_metrics(t.spans, t.counts, t.maxima) for t in tracers]
        metrics = {
            name: {"value": median([m[name][0] for m in per_pass]), "unit": unit}
            for name, (_, unit) in per_pass[0].items()
        }
        base = passes[0]
        for name, (stage, unit) in STAGE_METRICS.items():
            metrics[name] = {"value": base.stages.get(stage, 0.0), "unit": unit}
        long_s = base.stages.get("product_long", 0.0)
        metrics["stage.product_states_per_s"] = {
            "value": base.extra["product_states"] / long_s if long_s else 0.0, "unit": "states/s"}
        metrics["trace.overhead_s"] = {
            "value": median([ps.mix for ps in traced_passes]) - base.mix, "unit": "s"}
        metrics["trace.spans"] = {"value": median([len(t.spans) for t in tracers]), "unit": "count"}
        write_trace(out_dir / f"trace-{args.workload}-seed{args.seed}.json", tracers)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
