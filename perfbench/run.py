#!/usr/bin/env python3
"""Repo benchmark: builds the perfbench binary from source, runs one
workload and prints its result as one JSON object on the last stdout line.

    python3 perfbench/run.py --workload churn-1shard|churn-2shard|fig-sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root. The perfbench binary is built (CMake,
RelWithDebInfo) into $CARGO_TARGET_DIR, default `.bench_build`. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both). The traced run's spans are
written to <build dir>/traces/<workload>-seed<N>.json.

Besides the checks perfbench makes inside one run, this script keeps the
state digests of every run in <build dir>/digests.json, keyed by a hash of
the sources, and checks that every later run of the same (workload, seed)
reproduces them, and that churn-1shard and churn-2shard agree at the same
seed. Any failed check gives `"correct": false` and exit status 1; bad
arguments and build failures exit non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("churn-1shard", "churn-2shard", "fig-sweep")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def _integer(text, minimum, what):
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"{what} must be >= {minimum}, got {value}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True,
                   type=lambda t: _integer(t, 0, "--seed"))
    p.add_argument("--seconds", required=True,
                   type=lambda t: _integer(t, 1, "--seconds"))
    p.add_argument("--trace", required=True,
                   type=lambda t: _integer(t, 0, "--trace"), choices=(0, 1))
    p.add_argument("--peers", type=lambda t: _integer(t, 1, "--peers"),
                   help="universe size override (tests; default per workload)")
    p.add_argument("--inject-fault", choices=("digest",),
                   help="corrupt the reported digests (tests the checks)")
    return p.parse_args(argv)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"simulator sources not found in {ROOT} (need CMakeLists.txt and src/)", 3)
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found on PATH", 3)
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append([cmake, "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append([cmake, "--build", str(bdir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("building the benchmark failed", 3)
    return bdir / "perfbench"


def source_hash():
    """sha256 over the files that decide what a run computes."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += sorted(p for p in top.rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unavailable (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def cross_run_checks(bdir, key, digests, record):
    """Compares `digests` with earlier runs under the same key.
    Returns (attempted, failed)."""
    path = bdir / "digests.json"
    try:
        book = json.loads(path.read_text())
    except (OSError, ValueError):
        book = {}
    src = source_hash()
    seen = book.setdefault(src, {})
    if key in seen:
        same = seen[key]["digests"] == digests
        if not same:
            print(f"CHECK FAILED: digests {digests} differ from {seen[key]['digests']}"
                  f" recorded by {seen[key]['by']} for {key}", file=sys.stderr)
        return 1, 0 if same else 1
    if record:
        seen[key] = {"digests": digests, "by": record}
        path.write_text(json.dumps({src: seen}, indent=1))
    return 0, 0


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[section]}


def main(argv):
    args = parse_args(argv)
    bdir = build_dir()
    binary = build(bdir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.peers is not None:
        cmd += ["--peers", str(args.peers)]
    if args.inject_fault:
        cmd += ["--inject-fault", args.inject_fault]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(traces / f"{args.workload}-seed{args.seed}.json")]

    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"workload did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        die(f"perfbench exited with status {proc.returncode}", 4)
    result = json.loads(lines[-1])

    attempted, failed = result["attempted"], result["failed"]
    if result["digests"]:
        family = "fig-sweep" if args.workload == "fig-sweep" else "churn"
        peers = args.peers if args.peers is not None else "default"
        key = f"{family}:seed={args.seed}:peers={peers}"
        record = None if (args.inject_fault or failed) else args.workload
        a, f = cross_run_checks(bdir, key, result["digests"], record)
        attempted, failed = attempted + a, failed + f
    else:
        attempted, failed = attempted + 1, failed + 1
        print("CHECK FAILED: the run reported no state digest", file=sys.stderr)

    if "bench.check_fail_frac" in result["metrics"]:  # include the checks above
        result["metrics"]["bench.check_fail_frac"]["value"] = failed / attempted

    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            die(f"metrics do not match BENCHMARK.json: "
                f"{sorted(set(got.items()) ^ set(expected.items()))}", 4)

    manifest = dict(result["manifest"], git_sha=git_sha(),
                    source_sha256=source_hash(), digests=result["digests"],
                    wall_s=round(time.monotonic() - started, 3))
    print("# manifest " + json.dumps(manifest, sort_keys=True))
    print(f"# check_fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
