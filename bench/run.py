"""Benchmark of the mksvdd command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One process, one client, one operation at a
time (a closed loop): every op is a call of ``mksvdd.cli.main`` in this
process, ``experiment`` runs with ``--workers 1`` and any process pool is
refused. The workloads are defined in ``workloads.py`` and described, with
the metric-to-layer map, in ``spec.json``.

The timed phase repeats the workload's pass of calls until at least
``--seconds`` of call time are spent, in whole passes. Every call's outputs
are hashed and checked outside the timed calls; a call whose inputs were
seen before must reproduce its files byte for byte. With ``--trace 1`` the
first pass is then run again with spans around every layer's public
functions (``tracing.py``); the traced outputs and op counts must equal the
untraced ones and those of earlier runs of the same source.

The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` (ops) and ``metrics`` -- the ``end_to_end`` metrics of
BENCHMARK.json untraced, its ``per_layer`` metrics traced. The lines before
it print every metric measured, op latency percentiles included. The full result,
with the environment, goes to ``bench/out/results/``; spans to
``bench/out/spans/``.
"""

import time

T_START = time.perf_counter()

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path("bench") / "out"
SETUP_REPEATS = 5
E2E_UNITS = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MiB"}

# One BLAS thread: the load is one client on one core, and a fixed thread
# count keeps floating-point sums, and so output digests, reproducible.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MKSVDD_WORKERS", None)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def tree_hash(root: Path, paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mksvdd.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": commit,
        "source_sha256": tree_hash(SRC, (SRC / "mksvdd").rglob("*.py")),
        "bench_sha256": tree_hash(BENCH, [*BENCH.glob("*.py"), BENCH / "reference.json"]),
        "seed": seed,
        "workers": 1,
        "process_pool": "refused",
        "platform": platform.platform(),
    }


def file_digests(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class OpClock:
    """Splits a CLI call into ops at calls of the workload's boundary function."""

    def __init__(self, workload, patches):
        self.units = workload.units_per_call
        self.kind = None
        self.marks: list[float] = []
        self.tracer = None
        self.base = 0
        if workload.boundary is not None:
            self.kind, owner, attr = workload.boundary
            patches.replace(owner, attr, self._wrap)

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            if self.kind == "enter":
                self._mark()
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            self._mark()
            return result

        return wrapper

    def _mark(self):
        self.marks.append(time.perf_counter())
        if self.tracer is not None:
            ahead = len(self.marks) - (1 if self.kind == "enter" else 0)
            self.tracer.op = self.base + min(ahead, self.units - 1)

    def start(self, base):
        self.marks = []
        self.base = base
        if self.tracer is not None:
            self.tracer.op = base

    def latencies(self, start: float, end: float):
        """Per-op seconds, or None when the call did not split as expected."""
        if self.kind is None:
            return [end - start]
        if len(self.marks) != self.units:
            return None
        cuts = self.marks[1:] if self.kind == "enter" else self.marks[:-1]
        bounds = [start, *cuts, end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


class Runner:
    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.first = {}  # key -> (digests, problems per op) of its first call
        self.notes = {}
        self.problems: list[str] = []

    def call(self, call, clock, base):
        if call.out_dir.exists():
            shutil.rmtree(call.out_dir)
        clock.start(base)
        error = None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            code = self.cli.main(list(call.argv))
        except Exception as exc:  # an op that raises is a failed op
            code, error = None, f"{type(exc).__name__}: {exc}"
        end, cpu = time.perf_counter(), time.process_time() - cpu
        lat = clock.latencies(start, end)
        digests = file_digests(call.out_dir) if call.out_dir.exists() else {}
        units = self.workload.units_per_call
        if code != 0 or lat is None:
            verdict = [[error or f"exit code {code}, {len(clock.marks)} op marks"]] * units
        elif call.key in self.first:
            seen, verdict = self.first[call.key]
            if digests != seen:
                verdict = [[f"{call.key}: outputs differ from an earlier call"]] * units
        else:
            try:
                verdict = self.workload.check(call)
                note = self.workload.notes(call)
                if note:
                    self.notes[call.key] = note
            except Exception as exc:  # unreadable output fails the check
                verdict = [[f"check raised {type(exc).__name__}: {exc}"]] * units
            self.first[call.key] = (digests, verdict)
        failed = sum(bool(v) for v in verdict)
        for v in verdict:
            self.problems.extend(v)
        lat = lat or [(end - start) / units] * units
        return {"key": call.key, "seconds": end - start, "cpu_seconds": cpu, "latencies": lat,
                "failed": failed, "digests": digests}


def run_phase(runner, clock, calls, seconds=0.0):
    """Whole passes of calls, back to back, until ``seconds`` of call time.

    Whole passes keep the mix of ops the same in every run, so medians and
    percentiles over ops of different kinds do not jump with the op count.
    """
    records, busy = [], 0.0
    while not records or busy < seconds:
        for call in calls:
            base = len(records) * runner.workload.units_per_call
            records.append(runner.call(call, clock, base))
            busy += records[-1]["seconds"]
    return records, busy


def pctl(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def load_records(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def compare_records(mine: dict, earlier: dict) -> list[str]:
    out = []
    for key, rec in mine.items():
        old = earlier.get(key)
        if old is None:
            continue
        for part in ("files", "counts"):
            if part in rec and part in old and rec[part] != old[part]:
                out.append(f"{key}: {part} differ from an earlier run")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mksvdd" / "cli.py").is_file():
        return fail(f"no mksvdd sources at {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import_s = import_seconds()
    import mksvdd.cli as cli
    from tracing import Patches, Tracer, layer_metrics, op_counts, self_times
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    work = OUT / "work" / args.workload
    if work.exists():
        shutil.rmtree(work)
    setup_times = []
    for rep in range(SETUP_REPEATS):
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(rep_dir, args.seed)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    class NoPool:
        def __init__(self, *a, **k):
            raise RuntimeError("the benchmark runs single-process")

    patches = Patches()
    patches.replace(cli, "ProcessPoolExecutor", lambda _: NoPool)
    clock = OpClock(workload, patches)
    runner = Runner(workload, cli)
    calls = workload.calls()
    units = workload.units_per_call
    try:
        records, busy = run_phase(runner, clock, calls, args.seconds)
        spans = None
        if args.trace:
            # the untraced pass just before, over the same inputs
            last_pass = records[-len(calls):]
            tracer = Tracer()
            clock.tracer = tracer
            tracer.install()
            try:
                traced, traced_busy = run_phase(runner, clock, calls)
            finally:
                tracer.close()
            spans = tracer.spans
    finally:
        patches.restore()

    latencies = [x for r in records for x in r["latencies"]]
    attempted = len(latencies)
    failed = sum(r["failed"] for r in records)
    env = environment(args.seed)
    e2e = {
        "setup_s": setup_s,
        "ops_per_s": attempted / busy,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * pctl(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    # Exact repeats: files per input key, and with tracing the op counts.
    mine = {}
    for r in records:
        mine.setdefault(r["key"], {"files": r["digests"]})
    layer = None
    if spans is not None:
        failed += sum(r["failed"] for r in traced)
        attempted += len(traced) * units
        per_op = op_counts(spans)
        for j, r in enumerate(traced):
            counts = [per_op.get(j * units + u, {}) for u in range(units)]
            if mine[r["key"]].setdefault("counts", counts) != counts:
                runner.problems.append(f"{r['key']}: op counts differ within the traced pass")
                failed += units
        layer = layer_metrics(spans)
        untraced_rate = len(last_pass) * units / sum(r["seconds"] for r in last_pass)
        traced_rate = len(traced) * units / traced_busy
        layer.update({
            "trace.ops_per_s": traced_rate,
            "trace.untraced_ops_per_s": untraced_rate,
            "trace.overhead_ratio": untraced_rate / traced_rate,
            "trace.ops": len(traced) * units,
        })

    src = env["source_sha256"]
    # same benchmark code, workload and seed: same inputs
    scope = f"{env['bench_sha256'][:16]}/{args.workload}/{args.seed}"
    store_path = OUT / "records.json"
    store = load_records(store_path)
    repeats = compare_records(mine, store.get(src, {}).get(scope, {}))
    baseline = load_records(BENCH / "baseline" / "records.json")
    drift = []
    for base_src, scopes in baseline.items():
        found = compare_records(mine, scopes.get(scope, {}))
        (repeats if base_src == src else drift).extend(found)
    if repeats:
        failed += units * len(repeats)
        runner.problems.extend(repeats)
    for key, rec in mine.items():
        store.setdefault(src, {}).setdefault(scope, {}).setdefault(key, {}).update(rec)
    store_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, store_path)

    failed = min(failed, attempted)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "end_to_end": e2e,
        "failed_ops_ratio": failed / attempted,
        "latency_samples": len(latencies),
        "op_latencies_ms": [1e3 * x for x in latencies],
        "calls": [{k: r[k] for k in ("key", "seconds", "cpu_seconds", "failed")} for r in records],
        "problems": runner.problems[:50],
        "notes": runner.notes,
        "records": mine,
        "drift_from_baseline": drift,
        "per_layer": layer,
        "self_s": self_times(spans) if spans is not None else None,
        "wall_s": time.perf_counter() - T_START,
        "result": result,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if spans is not None:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        with open(OUT / "spans" / f"{tag}.jsonl", "w") as fh:
            for idx, s in enumerate(spans):
                fh.write(json.dumps({"id": idx, "name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "op": s[4], "attrs": s[5]}) + "\n")
    shutil.rmtree(work)

    report(args, e2e, detail, spec)
    print(json.dumps(result))
    return 0


def report(args, e2e, detail, spec):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"ops {detail['latency_samples']} (untraced)  failed {detail['result']['failed']}")
    for name, value in e2e.items():
        print(f"  {name:<20} {value:>14.6g} {E2E_UNITS[name]}")
    print(f"  {'failed_ops_ratio':<20} {detail['failed_ops_ratio']:>14.6g} fraction")
    for line in detail["problems"][:10]:
        print(f"  problem: {line}")
    for line in detail["drift_from_baseline"][:10]:
        print(f"  drift from baseline: {line}")
    if detail["per_layer"] is not None:
        print("  self time per layer (traced pass):")
        for layer_name, s in detail["self_s"].items():
            print(f"    {layer_name:<12} {s:>10.4f} s")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in detail["per_layer"].items():
            unit = units.get(name) or ("us" if "us_per" in name else
                                       "s" if name.endswith("_s") else "count")
            print(f"  {name:<28} {value:>14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
