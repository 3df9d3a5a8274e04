"""Every committed benchmark record at the repo root has one format.

A perf claim cites a ``BENCH_<n>.json``: parent against change on the
workloads of BENCHMARK.json, in alternating pairs.  Each record must parse
and carry the keys of ``BENCH_35.json``: its top-level keys; per workload
the seeds, the pair count, which side ran first in each pair and the
end-to-end metrics BENCHMARK.json names; per metric and side the median,
quartiles, IQR and one run per pair, the summary statistics being those of
the runs.  Only the repo root is read.
"""

import json
import math
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(
    (path for path in ROOT.glob("BENCH_*.json") if re.fullmatch(r"BENCH_\d+\.json", path.name)),
    key=lambda path: int(path.stem.split("_")[1]),
)
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
FORMAT = json.loads((ROOT / "BENCH_35.json").read_text())


def test_the_records_and_metrics_are_found():
    assert len(RECORDS) >= 2 and ROOT / "BENCH_35.json" in RECORDS
    assert METRICS == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac"]


def close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_bench_record_has_the_format_of_bench_35(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(FORMAT) <= set(record), path.name
    assert record["workloads"], path.name
    for name, workload in record["workloads"].items():
        where = f"{path.name} {name}"
        pairs = workload["pairs"]
        assert type(pairs) is int and pairs >= 2, where
        assert len(workload["seeds"]) == pairs, where
        assert len(workload["first_side_by_pair"]) == pairs, where
        assert set(workload["first_side_by_pair"]) <= {"parent", "change"}, where
        assert set(METRICS) <= set(workload["metrics"]), where
        for metric in METRICS:
            for side in ("parent", "change"):
                stats = workload["metrics"][metric][side]
                runs = stats["runs"]
                assert len(runs) == pairs, (where, metric, side)
                q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert close(stats["median"], statistics.median(runs)), (where, metric, side)
                assert close(stats["q1"], q1) and close(stats["q3"], q3), (where, metric, side)
                assert close(stats["iqr"], stats["q3"] - stats["q1"]), (where, metric, side)
