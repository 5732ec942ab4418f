"""Summarize result files: median, quartiles and spread of every metric.

    python3 benchmarks/summarize.py [RESULTS_DIR]

Reads the ``*.json`` records that ``run.py`` writes to ``.bench_results/``
(or RESULTS_DIR), groups them by workload and trace flag, and prints one
JSON object. ``spread`` is the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
the figure each end-to-end bound in BENCHMARK.json is checked against.
"""

import json
import statistics
import sys
from pathlib import Path


def summarize(paths):
    groups = {}
    for path in sorted(paths):
        record = json.loads(Path(path).read_text())
        group = groups.setdefault(f"{record['workload']}/trace{record['trace']}", {
            "env": record["env"], "seconds": record["seconds"], "seeds": [],
            "all_correct": True, "attempted": 0, "failed": 0, "metrics": {},
        })
        group["seeds"].append(record["env"]["seed"])
        group["all_correct"] &= record["result"]["correct"]
        group["attempted"] += record["result"]["attempted"]
        group["failed"] += record["result"]["failed"]
        for name, metric in record["result"]["metrics"].items():
            entry = group["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for group in groups.values():
        group["env"].pop("seed", None)
        for entry in group["metrics"].values():
            values = entry["values"]
            entry["median"] = median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return groups


if __name__ == "__main__":
    directory = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / ".bench_results"
    print(json.dumps(summarize(directory.glob("*.json")), indent=1, sort_keys=True))
