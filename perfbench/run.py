"""hhmeasure benchmark: three workloads timed end to end, and per layer in a traced run.

    python3 perfbench/run.py --workload cli-jobs --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It imports the package from ``src/``;
nothing needs to be installed.  Workloads (closed loop, one client, one job
at a time):

* ``cli-jobs``: fresh ``python -m hhmeasure.cli`` processes covering all
  seven subcommands; start-up and serialization dominate.
* ``density-sweep``: ``hh_density`` / ``total_variation`` / ``index_check``
  in process on bands 1-64 and grids 400^2-1600^2; raster and curve dominate.
* ``operator-identities``: commutator traces, smoothing identities,
  self-commutator bounds, the 14^2 degree identity against the Newton oracle,
  and Besov membership, in process; dense products and Newton dominate.

A run first starts ``SETUP_PROBES`` fresh interpreters that import hhmeasure
and build the inputs (``setup_s`` is their median), then repeats whole passes
over the job list until ``--seconds`` have passed and at least
``MIN_PASSES`` passes are done.  Every output is checked.  With ``--trace 0``
the last line of stdout holds the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and it holds the per-layer metrics.  A
full record (environment, per-job times, spans) goes to
``perfbench/.work/<workload>-seed<n>-trace<t>.json``.

``--write-golden`` records the sha256 of every CLI output on the fixed
symbols in ``perfbench/golden.json``; later runs count mismatches in
``cli.digest_changed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

BLAS_THREADS = "1"  # unpinned OpenBLAS threads on 2 shared cores made small products erratic
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
STARTUP_PROBES = 5
# The tail percentile is the one that leaves TAIL_BEYOND samples above it in
# MIN_PASSES passes, so it does not move when a faster build fits more passes
# in a run; it is read off the jobs of every pass, so a drift of the machine's
# speed within a run is averaged as in the medians.  Passes repeat the same
# jobs, so with 7 passes it lands in the middle of the samples of the
# second-heaviest job, not on an extreme.  cli-jobs passes are too long for
# more than 2.
MIN_PASSES = {"cli-jobs": 2, "density-sweep": 7, "operator-identities": 7}
TAIL_BEYOND = 10

PER_LAYER_TIMES = {
    "symbols.load_s": "symbols.load",
    "degree.curve_s": "degree.curve",
    "degree.grid_s": "degree.grid",
    "degree.winding_s": "degree.winding",
    "degree.preimage_s": "degree.preimage",
    "measure.hh_density_s": "measure.hh_density",
    "measure.total_variation_s": "measure.total_variation",
    "measure.index_check_s": "measure.index_check",
    "measure.smoothing_limit_probe_s": "measure.smoothing_limit_probe",
    "operators.commutator_trace_s": "operators.commutator_trace",
    "operators.smoothing_identity_s": "operators.smoothing_identity",
    "operators.self_commutator_s": "operators.self_commutator",
    "besov.membership_s": "besov.membership",
    "gallery.summary_table_s": "gallery.summary_table",
}
PER_LAYER_CALLS = {
    "symbols.load_calls": "symbols.load",
    "degree.winding_calls": "degree.winding",
    "degree.preimage_calls": "degree.preimage",
    "operators.commutator_trace_calls": "operators.commutator_trace",
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_version,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}, "seed": seed}


# -- set-up and start-up probes ----------------------------------------------------

def setup_times(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters that import hhmeasure and build the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True)
        times.append(time.monotonic() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.decode(errors='replace')}")
    return times


def startup_probe() -> dict:
    """interp/import/scipy seconds of one fresh ``import hhmeasure`` (-X importtime)."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hhmeasure"],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise RuntimeError(f"import failed: {done.stderr}")
    package = scipy = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue
        module = name.strip()
        if module == "hhmeasure":
            package = int(cumulative)
        if module == "scipy" or module.startswith("scipy."):
            scipy += int(own)
    return {"startup.interp_s": wall - package * 1e-6, "startup.import_s": package * 1e-6,
            "startup.import_scipy_s": scipy * 1e-6}


# -- passes ---------------------------------------------------------------------

def run_cli_job(job, golden: dict, tracer_dir: Path | None) -> dict:
    if job.out.exists():
        job.out.unlink()
    if tracer_dir is None:
        argv = [sys.executable, "-m", "hhmeasure.cli"] + job.args
    else:
        spans_path = tracer_dir / f"{job.name}.spans.json"
        argv = [sys.executable, str(HERE / "child.py"), str(spans_path), None] + job.args
    stderr_path = job.out.with_suffix(".stderr")
    with open(stderr_path, "wb") as err:
        start = time.monotonic()
        if tracer_dir is not None:
            argv[3] = repr(start)
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"name": job.name, "start": start, "end": end, "wall": end - start,
              "rss_mb": usage.ru_maxrss / 1024.0, "out_bytes": 0, "ratios": [],
              "error": None, "digest_changed": False}
    stderr = stderr_path.read_bytes()
    if proc.returncode != 0 or b"Traceback" in stderr:
        record["error"] = f"exit {proc.returncode}: {stderr[-400:].decode(errors='replace')}"
        return record
    data = job.out.read_bytes()
    record["out_bytes"] = len(data)
    if job.golden:
        record["digest_changed"] = hashlib.sha256(data).hexdigest() != golden.get(job.name)
    _check(job, data, record)
    if tracer_dir is not None:
        record["trace"] = json.loads(spans_path.read_text())
    return record


def run_py_job(job) -> dict:
    record = {"name": job.name, "ratios": [], "error": None}
    record["start"] = time.monotonic()
    try:
        result = job.run()
    except Exception as exc:        # a failed job is counted, the run goes on
        result = None
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["end"] = time.monotonic()
    record["wall"] = record["end"] - record["start"]
    if record["error"] is None:
        _check(job, result, record)
    return record


def _check(job, output, record) -> None:
    from workloads import CheckFailed
    try:
        record["ratios"] = [float(r) for r in job.check(output)]
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        record["error"] = f"check: {type(exc).__name__}: {exc}"
        return
    if any(not r <= 1.0 for r in record["ratios"]):
        record["error"] = f"identity outside tolerance: ratios {record['ratios']}"


def run_pass(workload: str, jobs, golden: dict, traced: bool, workdir: Path) -> dict:
    import spans
    tracer = uninstall = None
    tracer_dir = None
    if traced and workload == "cli-jobs":
        tracer_dir = workdir
    elif traced:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
    try:
        if workload == "cli-jobs":
            records = [run_cli_job(job, golden, tracer_dir) for job in jobs]
        else:
            records = [run_py_job(job) for job in jobs]
    finally:
        if uninstall is not None:
            uninstall()
    result = {"traced": traced, "wall": sum(r["wall"] for r in records), "jobs": records}
    if tracer is not None:
        result["trace"] = tracer.dump()
    return result


# -- metrics ---------------------------------------------------------------------

def tail(times: list, reference: int) -> tuple:
    """Value at the percentile that leaves TAIL_BEYOND of ``reference`` samples above it.

    Returns the value, its percentile and the sample count.  ``times`` holds
    at least ``reference`` samples, so at least TAIL_BEYOND lie above the value.
    """
    ordered = sorted(times)
    n = len(ordered)
    if reference <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    beyond = TAIL_BEYOND * n // reference
    return ordered[n - beyond - 1], 100.0 * (reference - TAIL_BEYOND) / reference, n


def end_to_end(workload: str, passes: list, setup: list) -> tuple:
    walls = [job["wall"] for p in passes for job in p["jobs"]]
    reference = sum(len(p["jobs"]) for p in passes[:MIN_PASSES[workload]])
    value, pct, count = tail(walls, reference)
    ratios = [r for p in passes for job in p["jobs"] for r in job["ratios"]]
    if workload == "cli-jobs":
        rss = max(job["rss_mb"] for p in passes for job in p["jobs"])
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["wall"] for p in passes),
        "job_s_p50": statistics.median(walls),
        "job_s_tail": value,
        "peak_rss_mb": rss,
        "err_ratio_max": max(ratios, default=0.0),
    }
    return metrics, {"job_s_tail_pct": pct, "job_s_tail_n": count}


def per_layer(workload: str, passes: list, startup: list) -> dict:
    import spans
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    gap = wall = 0.0
    for p in traced:
        if workload == "cli-jobs":
            traces = [(job["trace"], [(job["start"], job["end"])])
                      for job in p["jobs"] if "trace" in job]
        else:
            traces = [(p["trace"], [(job["start"], job["end"]) for job in p["jobs"]])]
        total, own, counts, calls = {}, {}, {}, {}
        for trace, windows in traces:
            t, o = spans.layer_times(trace["spans"])
            for name in t:
                total[name] = total.get(name, 0.0) + t[name]
                own[name] = own.get(name, 0.0) + o[name]
            for name, value in trace["counts"].items():
                counts[name] = counts.get(name, 0) + value
            for span in trace["spans"]:
                calls[span[0]] = calls.get(span[0], 0) + 1
            gap += spans.uncovered(trace["spans"], windows)
        wall += p["wall"]
        out_bytes = sum(job.get("out_bytes", 0) for job in p["jobs"])
        cells = counts.get("degree.cells", 0)
        grid_s = total.get("degree.grid", 0.0)
        preimages = calls.get("degree.preimage", 0)
        cli_self = own.get("cli.main", 0.0)
        row = {key: total.get(name, 0.0) for key, name in PER_LAYER_TIMES.items()}
        row.update({key: calls.get(name, 0) for key, name in PER_LAYER_CALLS.items()})
        row.update({
            "cli.self_s": cli_self,
            "cli.out_bytes": out_bytes,
            "cli.out_mb_per_s": out_bytes / 1e6 / cli_self if cli_self else 0.0,
            "cli.digest_changed": sum(bool(job.get("digest_changed")) for job in p["jobs"]),
            "degree.curve_points": counts.get("degree.curve_points", 0),
            "degree.curve_capped": counts.get("degree.curve_capped", 0),
            "degree.grid_self_s": own.get("degree.grid", 0.0),
            "degree.cells": cells,
            "degree.cells_per_s": cells / grid_s if grid_s else 0.0,
            "degree.masked_frac": counts.get("degree.masked_cells", 0) / cells if cells else 0.0,
            "degree.preimage_ok_ratio": (counts.get("degree.preimage_ok", 0) / preimages
                                         if preimages else 0.0),
            "measure.trace_formula_check_self_s": own.get("measure.trace_formula_check", 0.0),
            "operators.commutator_flops": counts.get("operators.commutator_flops", 0),
        })
        rows.append(row)
    layer = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    for key in startup[0]:
        layer[key] = statistics.median(probe[key] for probe in startup)
    layer["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                 - statistics.median(p["wall"] for p in plain))
    layer["trace.uncovered_frac"] = gap / wall
    return layer


def declared(kind: str) -> list:
    """Names and units of the metrics BENCHMARK.json declares for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


# -- entry point -----------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("cli-jobs", "density-sweep",
                                               "operator-identities"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import hhmeasure, build the inputs and exit (set-up probe)")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the sha256 of the fixed-symbol CLI outputs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")
    return args


def write_golden() -> int:
    import workloads
    workdir = WORK / "golden"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digests = {}
    for job in workloads.cli_jobs(0, workdir):
        if job.golden:
            record = run_cli_job(job, {}, None)
            if record["error"]:
                print(f"{job.name}: {record['error']}", file=sys.stderr)
                return 1
            digests[job.name] = hashlib.sha256(job.out.read_bytes()).hexdigest()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hhmeasure" / "__init__.py").is_file():
        print(f"no hhmeasure package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.write_golden:
        return write_golden()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_dir = WORK / f"{args.workload}-seed{args.seed}-setup"
    if args.setup_only:
        setup_dir.mkdir(parents=True, exist_ok=True)
        workloads.WORKLOADS[args.workload](args.seed, setup_dir)
        return 0

    setup = setup_times(args.workload, args.seed)
    shutil.rmtree(setup_dir, ignore_errors=True)
    startup = [startup_probe() for _ in range(STARTUP_PROBES)] if args.trace else []
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.WORKLOADS[args.workload](args.seed, workdir)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}

    passes = []
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds
           or len(passes) < (2 if args.trace else MIN_PASSES[args.workload])):
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args.workload, jobs, golden, traced, workdir))

    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [(job["name"], job["error"]) for p in passes for job in p["jobs"]
                if job["error"]]
    env = environment(args.seed)
    if args.trace:
        values = per_layer(args.workload, passes, startup)
        values["run.fail_frac"] = len(failures) / attempted
        values["env.nproc"] = env["nproc"]
        values["env.blas_threads"] = int(BLAS_THREADS)
        kind = "per_layer"
    else:
        values, extra = end_to_end(args.workload, passes, setup)
        kind = "end_to_end"
        print(f"# job_s_tail is p{extra['job_s_tail_pct']:.4g} of "
              f"{extra['job_s_tail_n']} jobs in {len(passes)} passes")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared(kind)}
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, {attempted} jobs, "
          f"{len(failures)} failed (fail_frac {len(failures) / attempted:.6g})")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, error in failures[:10]:
        print(f"# FAILED {name}: {error}")
    record = {"args": vars(args), "env": env, "setup_s": setup, "metrics": metrics,
              "failures": failures, "passes": passes}
    if not args.trace:
        record.update(extra)
    (WORK / f"{tag}.json").write_text(json.dumps(record))
    shutil.rmtree(workdir)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
