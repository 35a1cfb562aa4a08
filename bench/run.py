"""Benchmark of the surrotest CLI: time to verdict on two workloads.

Run from the repository root:

    python3 bench/run.py --workload lorenz-flow --seed 0 --seconds 55 --trace 0

Each verdict runs in a fresh interpreter (bench/child.py) that imports the
package before its clock starts, then calls ``surrotest.cli.main`` for every
stage of the workload.  Verdicts repeat, closed-loop and one at a time,
until ``--seconds`` have passed; every verdict of a run uses the same seed,
so each is byte-compared with the first.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` alternates untraced and traced verdicts
and reports the per-layer metrics.  Human-readable lines come first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_REPEATS = 7
BUDGET_S = 150.0          # hard stop for the verdict loop; the run ends < 180 s
CHILD_TIMEOUT_S = 120.0

# Defaults of RunConfig that the workloads do not override.
TRAIN_FRAC = 0.75
VAL_FRAC_OF_TRAIN = 0.30

WORKLOADS = {
    # The only workload that runs the RK45 integrator; ~97% of its time is
    # generation.  Generation cost is set by the fixed burn-in, not by N.
    "lorenz-flow": {
        "stages": ("pipeline",),
        "flags": ["--system", "lorenz", "--hidden-size", "10"],
        "L": 64, "N": 16, "epochs": 20,
    },
    # Five separate calls that hand over through CSV files; the only user
    # of load_series, the Butterworth filter and windowing.  The dataset
    # stage recomputes every surrogate, so IAAFT runs twice at L=128, and
    # 40 epochs give training a share that a training change can move.
    "record-staged": {
        "stages": ("generate", "surrogate", "dataset", "train", "report"),
        "flags": ["--system", "file", "--input", "{record}",
                  "--filter-cutoff-hz", "40", "--filter-fs-hz", "173.61",
                  "--hidden-size", "20"],
        "L": 128, "N": 100, "epochs": 40,
        "record_samples": 100_000,
    },
}

END_TO_END = {"time_to_verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer numbers that must repeat exactly between traced verdicts.
EXACT = ("cli.artifact_bytes", "dataset.csv_bytes", "dynsys.rhs_evals",
         "dynsys.rk45_step_attempts", "spectral.iaaft_calls",
         "spectral.iaaft_iterations", "spectral.iaaft_converged_ratio",
         "rnn.batches", "rnn.clip_ratio")

VERDICT_FIELDS = ("representative_epoch", "representative_accuracy",
                  "test_items", "successes", "null_proportion", "p_value",
                  "alpha", "reject_random_guess")


def layer_unit(name: str) -> str:
    """Per-layer names carry their unit: _s, _ms, _us..., _bytes, _ratio."""
    if "_us" in name:
        return "us"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_bytes", "bytes"),
                         ("_ratio", "ratio"), ("_coverage", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# Machine description
# ---------------------------------------------------------------------------

def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def write_record(path: Path, samples: int, seed: int) -> None:
    """Noisy Henon x-coordinate (a=1.4, b=0.3), one value per line."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE]))
    x, y = 0.6314 + rng.uniform(-0.05, 0.05), 0.1894 + rng.uniform(-0.05, 0.05)
    out = np.empty(samples)
    for i in range(1000 + samples):
        x, y = 1.0 - 1.4 * x * x + y, 0.3 * x
        if i >= 1000:
            out[i - 1000] = x
    out += 0.05 * out.std() * rng.standard_normal(samples)
    np.savetxt(path, out, fmt="%.17g")


def stage_calls(workload: dict, seed: int, out: Path, record: Path) -> list:
    # Paths relative to the checkout keep config.frozen.json, and so the
    # artifact byte counts, the same in every checkout.
    record, out = record.relative_to(ROOT), out.relative_to(ROOT)
    flags = [f.replace("{record}", str(record)) for f in workload["flags"]]
    flags += ["--L", str(workload["L"]), "--N", str(workload["N"]),
              "--epochs", str(workload["epochs"]), "--seed", str(seed),
              "--out", str(out)]
    return [[stage, *flags] for stage in workload["stages"]]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_permutations(out: Path, n: int):
    reals = csv_rows(out / "realizations.csv")
    surrs = csv_rows(out / "surrogates.csv")
    if len(reals) != n or len(surrs) != n:
        return f"expected {n} rows, got {len(reals)} realizations and {len(surrs)} surrogates"
    for i, (orig, surr) in enumerate(zip(reals, surrs)):
        # Values are written at 17 significant digits, so equal floats have
        # equal text: sorting the text compares the value multisets exactly.
        if sorted(orig) != sorted(surr):
            return f"surrogates.csv row {i} is not a permutation of its realization"
    return None


def expected_splits(n_pairs: int) -> dict:
    n_test = math.floor((1.0 - TRAIN_FRAC) * n_pairs + 1e-9)
    n_val = math.floor(VAL_FRAC_OF_TRAIN * (n_pairs - n_test) + 1e-9)
    return {"test": n_test, "validation": n_val,
            "train": n_pairs - n_test - n_val}


def check_splits(out: Path, n: int):
    rows = csv_rows(out / "dataset.csv")[1:]
    pairs = {}
    for row in rows:
        pairs.setdefault(int(row[0]), []).append((int(row[1]), row[2]))
    if sorted(pairs) != list(range(n)):
        return f"dataset.csv holds pairs {len(pairs)}, expected ids 0..{n - 1}"
    counts = {"test": 0, "validation": 0, "train": 0}
    for pid, members in pairs.items():
        labels = sorted(label for label, _ in members)
        splits = {split for _, split in members}
        if labels != [0, 1] or len(splits) != 1 or not splits <= counts.keys():
            return f"pair {pid} is not one original and one surrogate in one split"
        counts[splits.pop()] += 1
    if counts != expected_splits(n):
        return f"split counts {counts} differ from the floor rule {expected_splits(n)}"
    return None


def check_verdict(out: Path, n: int):
    with open(out / "verdict.json") as fh:
        verdict = json.load(fh)
    missing = [f for f in VERDICT_FIELDS if f not in verdict]
    if missing:
        return f"verdict.json lacks {missing}"
    if verdict["test_items"] != 2 * expected_splits(n)["test"]:
        return f"verdict counts {verdict['test_items']} test items"
    if not 0.0 <= verdict["p_value"] <= 1.0:
        return f"p_value {verdict['p_value']} outside [0, 1]"
    return None


def artifact_bytes(out: Path) -> dict:
    """Relative path -> contents, minus the out path in the frozen config."""
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "config.frozen.json":
            data = b"\n".join(line for line in data.split(b"\n")
                              if not line.startswith(b'  "out": '))
        files[str(path.relative_to(out))] = data
    return files


def check_identical(out: Path, reference: Path):
    ours, theirs = artifact_bytes(out), artifact_bytes(reference)
    if ours.keys() != theirs.keys():
        return f"artifact sets differ: {sorted(ours.keys() ^ theirs.keys())}"
    differing = [name for name in ours if ours[name] != theirs[name]]
    if differing:
        return f"artifacts differ from the run's first verdict: {differing}"
    return None


def failed_ops(workload: dict, codes: list, out: Path, reference: Path | None) -> dict:
    """Stage name -> reason, for every op of one verdict that failed."""
    stages = workload["stages"]
    failed = {}
    for i, stage in enumerate(stages):
        if i >= len(codes):
            failed[stage] = "not run after an earlier stage failed"
        elif codes[i] != 0:
            failed[stage] = f"exit code {codes[i]}"
    if failed:
        return failed

    def owner(stage):
        return stage if stage in stages else "pipeline"

    n = workload["N"]
    checks = [
        (owner("surrogate"), lambda: check_permutations(out, n)),
        (owner("dataset"), lambda: check_splits(out, n)),
        (owner("report"), lambda: check_verdict(out, n)),
    ]
    if reference is not None:
        checks.append((stages[-1], lambda: check_identical(out, reference)))
    for stage, check in checks:
        try:
            reason = check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failed.setdefault(stage, reason)
    return failed


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env: dict) -> list:
    """Wall time of fresh interpreters importing the CLI and building its parser."""
    code = "import surrotest.cli as c; c.build_parser()"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"importing surrotest.cli failed:\n{proc.stderr}")
    return times


def run_child(spec: dict, spec_path: Path, env: dict, timeout: float):
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), proc.stderr.strip()


def tail(values) -> str:
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it below n=11"
    ordered = sorted(values)
    return (f"n={n}; p{100.0 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s "
            f"(10 samples beyond it)")


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    if not (SRC / "surrotest" / "cli.py").is_file():
        print(f"error: {SRC / 'surrotest' / 'cli.py'} not found; run from the "
              "root of a surrotest checkout", file=sys.stderr)
        return 2
    env = child_env()
    info = machine()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    # The record path lands in config.frozen.json, so it must not vary
    # between runs of one seed and trace setting.
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        setups = measure_setup(env) if not args.trace else []
        record = work / "record.txt"
        if "record_samples" in workload:
            write_record(record, workload["record_samples"], args.seed)
        verdicts = measure(args, workload, work, record, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, workload, setups, verdicts)


def measure(args, workload: dict, work: Path, record: Path, env: dict) -> list:
    verdicts = []
    reference = None
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        i = len(verdicts)
        # Start a verdict only if one more, at the mean wall time so far,
        # still ends inside the window, so a run lasts about --seconds.
        if i >= 2 and elapsed * (i + 1) / i > min(args.seconds, BUDGET_S):
            break
        traced = bool(args.trace) and i % 2 == 1
        out = work / f"v{i}"
        spec = {
            "calls": stage_calls(workload, args.seed, out, record),
            "trace": traced,
            "spans": str(WORK / f"spans-{args.workload}.csv"),
            "run_id": f"{args.workload}-seed{args.seed}-v{i}",
            "L": workload["L"],
            "epochs": workload["epochs"],
        }
        timeout = max(1.0, min(CHILD_TIMEOUT_S, BUDGET_S + 20 - elapsed))
        result, note = run_child(spec, work / f"v{i}.json", env, timeout)
        if result is None:
            failed = {stage: note for stage in workload["stages"]}
        else:
            failed = failed_ops(workload, result["codes"], out, reference)
        completed = result is not None and result["codes"] == [0] * len(spec["calls"])
        verdict = {"traced": traced, "failed": failed, "result": result,
                   "completed": completed}
        if completed and traced:
            result["layers"]["cli.artifact_bytes"] = sum(
                len(data) for data in artifact_bytes(out).values())
            result["layers"]["dataset.csv_bytes"] = (out / "dataset.csv").stat().st_size
        if reference is None and result is not None and not failed:
            reference = out
        if out != reference:
            shutil.rmtree(out, ignore_errors=True)
        verdicts.append(verdict)
        status = "ok" if not failed else f"FAILED {failed}"
        if result is not None:
            print(f"verdict {i}{' traced' if traced else ''}: "
                  f"{result['ttv_s']:.4f} s  rss {result['rss_mb']:.1f} MB  {status}")
        else:
            print(f"verdict {i}: {status}")
    return verdicts


def report(args, workload: dict, setups: list, verdicts: list) -> int:
    attempted = len(verdicts) * len(workload["stages"])
    failed = sum(len(v["failed"]) for v in verdicts)
    # A verdict is timed when all its CLI calls returned 0, even if a later
    # output check failed; the failure shows in `failed` and `correct`.
    done = [v for v in verdicts if v["completed"]]
    untraced = [v["result"] for v in done if not v["traced"]]
    traced = [v["result"] for v in done if v["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no verdict completed its CLI calls", file=sys.stderr)
        return 1
    ttv = [r["ttv_s"] for r in untraced]

    if not args.trace:
        metrics = {
            "time_to_verdict_s": statistics.median(ttv),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r["rss_mb"] for r in untraced]),
        }
        print(f"time_to_verdict_s  {metrics['time_to_verdict_s']:.4f} s median  "
              f"({tail(ttv)}; max {max(ttv):.4f} s)")
        print(f"setup_s            {metrics['setup_s']:.4f} s median of {len(setups)}")
        print(f"peak_rss_mb        {metrics['peak_rss_mb']:.1f} MB median")
        units = END_TO_END
    else:
        layers = [r["layers"] for r in traced]
        metrics = {}
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            if name not in EXACT:
                metrics[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                # Counted against the last op of the run's traced verdicts.
                print(f"exact count {name} differs between traced verdicts: {values}")
                failed += 1
            metrics[name] = values[0]
        metrics["trace.overhead_s"] = (statistics.median([r["ttv_s"] for r in traced])
                                       - statistics.median(ttv))
        for name in traced[0]["absent"]:
            print(f"absent: {name} (a wrapped function no longer exists)")
        for name in traced[0]["unwrapped"]:
            print(f"unwrapped: {name} not found")
        if metrics.get("trace.stage_coverage", 1.0) < 0.95:
            print(f"warning: stage spans cover only "
                  f"{metrics['trace.stage_coverage']:.3f} of the traced wall time")
        units = {name: layer_unit(name) for name in metrics}
        for name in sorted(metrics):
            print(f"{name:32s} {metrics[name]:.6g} {units[name]}")
    print(f"ops_failed/ops_attempted {failed}/{attempted} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
