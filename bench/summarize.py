"""Collect the runs in bench/out/results into one perf-trajectory point.

    python3 bench/summarize.py OUT.json [LABEL]

For every workload it writes each end-to-end metric's median, quartiles and
values over the untraced runs, and each per-layer metric's median over the
traced runs, with the environment of the first run and the seeds used. The
exact-repeat records of those runs are copied to ``records.json`` beside
OUT.json, for later runs of the same inputs to compare against.
"""

import json
import shutil
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "iqr_over_median": (q[2] - q[0]) / statistics.median(values),
            "values": values}


def main(argv) -> int:
    target = Path(argv[1])
    runs = [json.loads(p.read_text()) for p in sorted((OUT / "results").glob("*.json"))]
    if not runs:
        print("error: no results in bench/out/results", file=sys.stderr)
        return 2
    point = {"label": argv[2] if len(argv) > 2 else target.stem,
             "environment": runs[0]["environment"], "workloads": {}}
    for name in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == name and not r["trace"]]
        traced = [r for r in runs if r["workload"] == name and r["trace"]]
        entry = point["workloads"][name] = {
            "seeds": sorted(r["environment"]["seed"] for r in plain),
            "traced_seeds": sorted(r["environment"]["seed"] for r in traced),
            "all_correct": all(r["result"]["correct"] for r in plain + traced),
            "failed_ops_ratio": max((r["failed_ops_ratio"] for r in plain), default=None),
        }
        if plain:
            entry["end_to_end"] = {
                m: spread([r["end_to_end"][m] for r in plain]) for m in plain[0]["end_to_end"]
            }
        if traced:
            entry["per_layer_median"] = {
                m: statistics.median(r["per_layer"][m] for r in traced)
                for m in traced[0]["per_layer"]
            }
            entry["notes"] = traced[0]["notes"]
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    shutil.copyfile(OUT / "records.json", target.parent / "records.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
