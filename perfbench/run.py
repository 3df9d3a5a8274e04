"""Benchmark of the racah-dunkl verifier: time to an exact verdict.

    python3 perfbench/run.py --workload racah-sweep --seed 1 --seconds 30 --trace 0

One client, one process at a time, no threads: a closed loop that starts
the next run only after the previous one ended.  Every run is a fresh
interpreter (``sample.py``), so set-up time and peak memory cover one run.
The seed draws the deformation parameters mu; the work is fixed.  Each run
passes the correctness gate in ``workloads.py`` or counts as failed and is
not timed as a success.

With ``--trace 0`` the runs install nothing but the pace sampler of
``pace.py`` and the end-to-end metrics of BENCHMARK.json are printed: times
are medians over the run, in seconds at the sampler's nominal host pace.
With ``--trace 1`` untraced and traced runs alternate; the per-layer
metrics come from the traced runs (medians over them) and
``trace.overhead_s`` is the fastest traced minus the fastest untraced raw
wall time.  The last stdout line is the JSON result; a fuller record (mu,
every sample with its raw times and pace, Python version, CPU count, git
commit) goes to ``.perfbench/results-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE = HERE / "sample.py"
SETUP_RUNS = 5  # set-up-only runs per benchmark run, on top of the measured ones
RUN_TIMEOUT_S = 150


class SampleError(RuntimeError):
    """A run that ended without a result: crashed, hung or printed garbage."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RACAH_DUNKL_THREADS", None)  # measure the default sequential path
    env["PYTHONHASHSEED"] = "0"
    return env


def run_sample(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Start one fresh interpreter; return its result plus its set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(SAMPLE), workload, str(seed), mode],
        stdout=subprocess.PIPE,
        bufsize=0,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - start))
        line = proc.stdout.readline() if ready else b""
        setup_raw_s = time.perf_counter() - start
        if not line.startswith(b"ready "):
            raise SampleError(f"{workload} {mode}: no ready signal")
        setup_pace = json.loads(line[len(b"ready "):])
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload} {mode}: timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise SampleError(f"{workload} {mode}: exit code {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1]) if mode != "setup" else {}
    result["setup_raw_s"] = setup_raw_s
    # the child's reference chunks are not set-up work; the rest goes at the nominal pace
    result["setup_s"] = (
        (setup_raw_s - setup_pace["chunk_total_s"])
        * pace.CHUNK_NOMINAL_S / setup_pace["chunk_wall_s"]
    )
    return result


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    run_sample(workload, seed, "setup", deadline)  # warm-up: byte-compiles the package
    setups = [run_sample(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS)]
    modes = ("plain", "traced") if trace else ("plain",)
    samples: list[dict] = []
    begin = time.perf_counter()
    while True:
        for mode in modes:
            sample = run_sample(workload, seed, mode, deadline)
            sample["mode"] = mode
            samples.append(sample)
            setups.append(sample["setup_s"])
        elapsed = time.perf_counter() - begin
        rounds = len(samples) // len(modes)
        if elapsed + elapsed / rounds / 2 > seconds:  # end within half a round of the target
            break
    digests = {s["sha256"] for s in samples}
    if len(digests) > 1:  # same seed, same inputs: the outputs must be identical
        for s in samples:
            s["problems"].append(f"outputs differ between runs: {sorted(digests)}")
    return {"setups": setups, "samples": samples}


def summarize(spec: dict, measured: dict, trace: bool) -> dict:
    samples = measured["samples"]
    passed = [s for s in samples if not s["problems"]]

    def timed(mode: str) -> list[dict]:
        # with no pass in a mode, correct is false and these are not successes
        of_mode = [s for s in samples if s["mode"] == mode]
        return [s for s in of_mode if not s["problems"]] or of_mode

    plain = timed("plain")
    if trace:
        traced = timed("traced")
        values = {  # raw times: traced runs carry no pace sampler
            "trace.overhead_s": min(s["wall_own_s"] for s in traced)
            - min(s["wall_own_s"] for s in plain)
        }
        for name in (m["name"] for m in spec["per_layer"]):
            if name.startswith("relations.checks."):  # families a workload lacks count 0
                values[name] = statistics.median_low([s["layers"].get(name, 0) for s in traced])
            elif name not in values:
                values[name] = statistics.median_low([s["layers"][name] for s in traced])
        metrics = spec["per_layer"]
    else:
        values = {  # times at the nominal pace (pace.py); raw times go to the record
            "wall_s": statistics.median(s["wall_s"] for s in plain),
            "cpu_s": statistics.median(s["cpu_s"] for s in plain),
            "setup_s": statistics.median(measured["setups"]),
            "peak_rss_mb": statistics.median([s["peak_rss_kb"] / 1024 for s in plain]),
            "ok_frac": len(passed) / len(samples),
        }
        metrics = spec["end_to_end"]
    return {
        "correct": len(passed) == len(samples),
        "attempted": len(samples),
        "failed": len(samples) - len(passed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so run_sample stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "racah_dunkl" / "__init__.py").is_file():
        print(f"no racah_dunkl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SampleError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    result = summarize(spec, measured, bool(args.trace))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mu": measured["samples"][0]["mu"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "setups_s": measured["setups"],
        "samples": measured["samples"],
        "result": result,
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    walls = ", ".join(
        f"{s['mode']} {s['wall_own_s']:.3f}"
        + (f" ({s['wall_s']:.3f} at nominal pace)" if "wall_s" in s else "")
        for s in measured["samples"]
    )
    print(f"{args.workload} seed {args.seed} mu {','.join(record['mu'])}: "
          f"{len(measured['samples'])} runs ({walls} s); record in {path.relative_to(ROOT)}")
    for s in measured["samples"]:
        for problem in s["problems"]:
            print(f"FAILED ({s['mode']}): {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
