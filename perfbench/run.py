#!/usr/bin/env python3
"""Reproduction benchmark for the JETTY snoop-filter simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-all --seed 0 --seconds 50 --trace 0

It builds `jetty-repro` and the layer tracer (`perfbench/src/main.rs`) from
source, then either

* `--trace 0`: runs the workload end to end as a user does, repeatedly for
  `--seconds`, compares every stdout with the recorded expected output and
  reports the end-to-end metrics (medians over the repetitions); or
* `--trace 1`: runs the workload once end to end, then drives its jobs
  through each layer's public calls with the tracer, as often as
  `--seconds` allows, and reports the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. `--workload all` runs every workload in turn. `--record` rewrites
the expected outputs from the current tree; `--selftest` checks that the
recording procedure reproduces the repository's scale-0.02 golden file.
See perfbench/BENCHMARK.md for the metric definitions.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
EXPECTED = os.path.join(BENCH, "expected")
RUN_DIR = os.path.join(ROOT, ".perfbench")

# One scale for every workload: long enough that replay dominates
# paper-all as it does at full scale, short enough for ~10 repetitions of
# the slowest workload in one run.
SCALE = "0.2"
# Minimum end-to-end repetitions per run, whatever --seconds says.
MIN_REPS = 5
# Set-up samples taken after each end-to-end repetition (one is a few
# milliseconds). Spreading them over the whole run, rather than taking them
# in one burst, keeps the median clear of the host's noisy stretches.
SETUP_REPS = 5
# Every run must end well inside the 180 s a run is allowed, counted from
# the end of the build (a first build in a fresh checkout may take longer).
DEADLINE_S = 170.0
BUILD_DEADLINE_S = 850.0

# The `jetty-repro` arguments of each workload; None stands for a fresh
# run-store file.
WORKLOADS = {
    # Every paper exhibit plus the ablations, appended to a fresh run store.
    "paper-all": ["all", "--store", None],
    # The default protocol x cpus grid with one hybrid filter.
    "sweep-grid": ["sweep"],
}

STARTED = time.monotonic()


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining():
    left = DEADLINE_S - (time.monotonic() - STARTED)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def child_env():
    """The environment of every child: no JETTY_* override from the caller
    (thread, shard, SIMD, fault or deadline knobs), and a pinned git
    revision so `--store` never searches for a repository."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JETTY_")}
    env["JETTY_GIT_REV"] = "perfbench"
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return env


def target_dir():
    path = child_env()["CARGO_TARGET_DIR"]
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def metric_units():
    """(end-to-end, per-layer) metric name -> unit maps, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def build():
    for need in ("Cargo.toml", os.path.join("crates", "experiments")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a full checkout of the repository")
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "jetty-experiments", "--bin", "jetty-repro"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr, timeout=BUILD_DEADLINE_S)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "jetty-repro"), os.path.join(release, "jetty-perfbench")


def threads():
    return len(os.sched_getaffinity(0))


def repro_args(workload, scale, store):
    args = [store if a is None else a for a in WORKLOADS[workload]]
    return args + ["--scale", scale, "--threads", str(threads())]


def run_repro(repro, workload, scale, work):
    """One end-to-end invocation. Returns (stdout bytes, exit code, wall s,
    cpu s, peak RSS MB)."""
    store = os.path.join(work, "store")
    if os.path.exists(store):
        os.remove(store)
    out_path = os.path.join(work, "stdout")
    with open(out_path, "wb") as out, open(os.path.join(work, "stderr"), "wb") as err:
        deadline = remaining()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [repro] + repro_args(workload, scale, store), cwd=ROOT, env=child_env(), stdout=out, stderr=err
        )
        killer = threading.Timer(deadline, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return stdout, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def tracer(binary, mode, workload, *extra):
    cmd = [binary, mode, "--workload", workload, "--scale", SCALE, "--threads", str(threads())]
    done = subprocess.run(
        cmd + list(extra), cwd=ROOT, env=child_env(), capture_output=True, timeout=remaining()
    )
    sys.stderr.write(done.stderr.decode(errors="replace"))
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def expected_stdout(workload):
    with open(os.path.join(EXPECTED, f"{workload}.txt"), "rb") as f:
        return f.read()


def fidelity(workload, stdout, paper_miss_pct):
    """Mean absolute delta, in points, of the run's paper-targeted output:
    the calibration exhibit, or for the sweep (which renders no
    calibration) its 4-way MOESI would-miss share against the paper's
    suite average."""
    lines = stdout.decode().splitlines()
    if workload == "sweep-grid":
        for line in lines:
            cells = line.split()
            if len(cells) == 11 and cells[0] == "4" and cells[1] == "MOESI":
                return abs(float(cells[8].rstrip("%")) - paper_miss_pct)
        raise BenchError("no 4-way MOESI row in the sweep table")
    start = lines.index("== Calibration: measured vs paper (delta in points) ==") + 3
    deltas = []
    for line in lines[start:]:
        if not line.strip():
            break
        deltas.extend(abs(float(v)) for v in line.split()[1:])
    if not deltas:
        raise BenchError("empty calibration exhibit")
    return statistics.mean(deltas)


def cpu_jiffies():
    """(steal, total) jiffies of the whole machine so far, from /proc/stat:
    how much CPU time the hypervisor withheld, which inflates wall time."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields)


def summarize(name, unit, values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    print(f"{name:>18} {med:12.6g} {unit:<7} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    return med


def end_to_end(workload, seconds, repro, perfbench, work):
    setup = tracer(perfbench, "setup", workload, "--reps", str(SETUP_REPS))
    jobs, refs = setup["jobs"], setup["refs"]
    expected = expected_stdout(workload)
    units = metric_units()[0]
    samples = {k: [] for k in units}
    samples["setup_s"] = list(setup["setup_s"])
    attempted = failed = 0
    fidelity_pts = None
    jiffies_before = cpu_jiffies()
    begin = time.monotonic()
    while len(samples["wall_s"]) < MIN_REPS or time.monotonic() - begin < seconds:
        stdout, code, wall, cpu, rss = run_repro(repro, workload, SCALE, work)
        samples["setup_s"] += tracer(perfbench, "setup", workload, "--reps", str(SETUP_REPS))["setup_s"]
        attempted += jobs
        if code != 0 or stdout != expected:
            log(f"[perfbench] {workload}: exit {code}, stdout {'matches' if stdout == expected else 'differs'}")
            failed += jobs
        if fidelity_pts is None and code == 0:
            fidelity_pts = fidelity(workload, stdout, setup["paper_miss_pct"])
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        samples["mrefs_per_s"].append(refs / 1e6 / wall)
    if fidelity_pts is None:
        raise BenchError(f"{workload}: every repetition exited nonzero")
    samples["fidelity_err_pts"] = [fidelity_pts]
    steal, total = (after - before for after, before in zip(cpu_jiffies(), jiffies_before))
    print(f"# {workload}: {jobs} jobs, {refs} simulated refs per run, scale {SCALE}, {threads()} threads")
    print(f"# host steal during the run: {100.0 * steal / max(total, 1):.1f}% of CPU time")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": summarize(name, unit, samples[name]), "unit": unit}
    print(f"{'fail_frac':>18} {failed / attempted:12.6g} ratio   ({failed} of {attempted} jobs)")
    return failed == 0, attempted, failed, metrics


def check_counts(workload, seed, counts):
    """Counts must repeat exactly: against the recorded seed-0 counts, and
    against the first traced run of this seed in this checkout."""
    problems = []
    if seed == 0:
        with open(os.path.join(EXPECTED, "counts.json")) as f:
            recorded = json.load(f)[workload]
        if recorded != counts:
            problems.append(f"counts {counts} differ from the recorded {recorded}")
    memo = os.path.join(RUN_DIR, f"counts-{workload}-{seed}.json")
    if os.path.exists(memo):
        with open(memo) as f:
            first = json.load(f)
        if first != counts:
            problems.append(f"counts {counts} differ from an earlier run's {first}")
    else:
        with open(memo, "w") as f:
            json.dump(counts, f)
    return problems


def traced(workload, seed, seconds, repro, perfbench, work):
    stdout, code, _, cpu, _ = run_repro(repro, workload, SCALE, work)
    expected = expected_stdout(workload)
    problems = []
    if code != 0 or stdout != expected:
        problems.append(f"end-to-end run: exit {code}, stdout differs: {stdout != expected}")
    runs = []
    begin = time.monotonic()
    while not runs or time.monotonic() - begin + (time.monotonic() - begin) / len(runs) < seconds:
        out = tracer(perfbench, "trace", workload, "--seed", str(seed), "--out", work)
        problems.extend(out["problems"])
        with open(os.path.join(work, "engine.txt"), "rb") as f:
            if f.read() != expected:
                problems.append("the engine path's rendered results differ from the expected stdout")
        if seed == 0:
            with open(os.path.join(work, "traced.txt"), "rb") as f:
                if f.read() != stdout:
                    problems.append("the traced path's rendered results differ from the end-to-end stdout")
        if runs and out["counts"] != runs[0]["counts"]:
            problems.append("counts differ between traced passes of one run")
        runs.append(out)
        shutil.copy(os.path.join(work, "spans.json"), os.path.join(RUN_DIR, f"spans-{workload}.json"))
    problems.extend(check_counts(workload, seed, runs[0]["counts"]))
    for p in problems:
        log(f"[perfbench] {workload}: {p}")
    for out in runs:
        out["metrics"]["trace.e2e_cpu_s"] = cpu
        out["metrics"]["trace.overhead_ratio"] = out["metrics"]["trace.gen_sim_s"] / cpu
    print(f"# {workload}: traced {len(runs)} time(s), seed {seed}, scale {SCALE}; spans in .perfbench/")
    metrics = {}
    for name, unit in metric_units()[1].items():
        values = [out["metrics"][name] for out in runs]
        metrics[name] = {"value": summarize(name, unit, values), "unit": unit}
    jobs = int(runs[0]["metrics"]["engine.jobs"])
    failed = jobs if problems else 0
    return not problems, jobs, failed, metrics


def run_one(workload, args, repro, perfbench):
    work = os.path.join(RUN_DIR, f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            result = traced(workload, args.seed, args.seconds, repro, perfbench, work)
        else:
            result = end_to_end(workload, args.seconds, repro, perfbench, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return correct


def record(repro, perfbench):
    """Rewrites the expected stdout and seed-0 counts of every workload
    from the current tree."""
    work = os.path.join(RUN_DIR, f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    counts = {}
    try:
        for workload in WORKLOADS:
            stdout, code, _, _, _ = run_repro(repro, workload, SCALE, work)
            if code != 0:
                raise BenchError(f"{workload} exited {code}")
            with open(os.path.join(EXPECTED, f"{workload}.txt"), "wb") as f:
                f.write(stdout)
            counts[workload] = tracer(perfbench, "trace", workload, "--out", work)["counts"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(EXPECTED, "counts.json"), "w") as f:
        json.dump(counts, f, indent=2, sort_keys=True)
        f.write("\n")


def selftest(repro):
    """The paper-all recording procedure at scale 0.02 must reproduce the
    repository's golden stdout byte for byte."""
    work = os.path.join(RUN_DIR, f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        stdout, code, _, _, _ = run_repro(repro, "paper-all", "0.02", work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(ROOT, "tests", "golden", "all_scale002.txt"), "rb") as f:
        golden = f.read()
    ok = code == 0 and stdout == golden
    print(f"selftest: paper-all at scale 0.02 {'matches' if ok else 'DIFFERS from'} tests/golden/all_scale002.txt")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (args.workload or args.record or args.selftest):
        parser.error("--workload, --record or --selftest is required")
    global DEADLINE_S, STARTED
    if args.workload == "all" or args.record:
        DEADLINE_S *= len(WORKLOADS)
    try:
        repro, perfbench = build()
        STARTED = time.monotonic()
        os.makedirs(RUN_DIR, exist_ok=True)
        if args.record:
            record(repro, perfbench)
            return 0
        if args.selftest:
            return 0 if selftest(repro) else 1
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        ok = [run_one(w, args, repro, perfbench) for w in workloads]
        # A single workload's verdict is the JSON line; `all` also exits 1.
        return 0 if all(ok) or len(workloads) == 1 else 1
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
