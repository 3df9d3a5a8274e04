"""One run of one workload in a fresh interpreter, driven by run.py.

    python3 perfbench/sample.py WORKLOAD SEED MODE

MODE is ``setup`` (import and make inputs, then exit), ``plain`` (time the
run with nothing installed but the pace sampler) or ``traced`` (install the
span wrappers first, and no pace sampler, so that no reference chunk lands
in a span).  After set-up the process prints ``ready`` and the pace of its
set-up as JSON, so the parent can time set-up from the outside; after the
run it prints one JSON line with the timings, the gate's verdict and, when
traced, the per-layer metrics.  The run's spans are written to
``.perfbench/spans-<workload>.tsv``.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


def main(argv: list[str]) -> int:
    import pace

    setup_pace = pace.PaceSampler()
    setup_pace.start()
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, str(SRC))
    import racah_dunkl
    import racah_dunkl.cli  # noqa: F401  -- the one module the package root leaves out
    import workloads

    if not Path(racah_dunkl.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"racah_dunkl imported from {racah_dunkl.__file__}, not {SRC}")
    workload = workloads.WORKLOADS[name]
    mu = workloads.draw_mu(seed)
    print("ready", json.dumps(dataclasses.asdict(setup_pace.stop())), flush=True)
    if mode == "setup":
        return 0

    tracer = sampler = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        root = tracer.begin(tracer.ids[spans.ROOT])
    else:
        sampler = pace.PaceSampler()
        sampler.start()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    crash = []
    try:
        outcome = workload.run(mu)
    except Exception as exc:  # an engine failure is a failed run, not a benchmark crash
        traceback.print_exc()
        outcome, crash = workloads.Outcome(), [f"raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.finish(root)
        timing = {"wall_own_s": wall, "cpu_own_s": cpu}
    else:
        paced = sampler.stop()
        timing = dataclasses.asdict(paced) | {"wall_s": paced.wall_s, "cpu_s": paced.cpu_s}

    result = timing | {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mu": [str(m) for m in mu],
        "checks": outcome.checks,
        "sha256": outcome.digest,
        "problems": crash + workloads.problems(workload, seed, outcome),
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        families = Counter(e["relation"] for report in outcome.reports for e in report)
        for family, count in families.items():
            layers[f"relations.checks.{family}"] = count
        layers["report.checks"] = sum(len(report) for report in outcome.reports)
        layers["report.failed"] = sum(
            1 for report in outcome.reports for e in report if e["status"] != "ok"
        )
        layers["cli.output_bytes"] = outcome.output_bytes
        result["layers"] = layers
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"spans-{name}.tsv"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
