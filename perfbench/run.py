#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-digests SEED [SEED ...]

Run from the root of a checkout. The first call builds the simulator's
libraries and the driver from source into .bench_build/ (or the directory
named by CARGO_TARGET_DIR, relative to the checkout), then runs the serve
parity self-test once per build. Each run prints a host line and, as its
last line, one JSON object with the keys correct, attempted, failed and
metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pbs_stream", "serve_peak", "campus_grid", "fault_campaign")
DIGESTS = os.path.join(HERE, "digests.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    name = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, name))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def build(bdir):
    """Configure (once) and build the driver; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from the root of a full checkout"
             % ROOT, 2)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s); full log in %s" % (" ".join(cmd[:2]), log_path))
    binary = os.path.join(bdir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def run_binary(args, timeout=RUN_TIMEOUT_S):
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(args[1:3]), timeout))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (" ".join(args[1:]), proc.returncode))
    return proc.stdout


def selftest(binary, bdir, force=False):
    """The serve parity check, once per built binary (or always with force)."""
    st = os.stat(binary)
    stamp_path = os.path.join(bdir, "selftest.ok")
    stamp = "%d %d\n" % (st.st_mtime_ns, st.st_size)
    if not force and os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return
    sys.stderr.write(run_binary([binary, "--selftest"]))
    with open(stamp_path, "w") as f:
        f.write(stamp)


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-digests", type=int, nargs="+", metavar="SEED")
    a = p.parse_args()
    if not (a.workload or a.selftest or a.record_digests):
        p.error("give --workload, --selftest or --record-digests")
    if a.seed < 0:
        p.error("--seed must be >= 0")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bdir = build_dir()
    binary = build(bdir)
    selftest(binary, bdir, force=a.selftest)
    if a.selftest:
        return

    if a.record_digests:
        digests = load_json(DIGESTS) if os.path.isfile(DIGESTS) else {}
        for w in WORKLOADS:
            for seed in a.record_digests:
                out = run_binary([binary, "--workload", w, "--seed", str(seed),
                                  "--seconds", "0.001", "--reps", "1", "--trace", "0"])
                res = json.loads(out.strip().splitlines()[-1])
                if res["checks_failed"]:
                    fail("%s seed %d fails its checks: %s" % (w, seed, res["checks_failed"]))
                digests.setdefault(w, {})[str(seed)] = res["digest"]
                print("%s seed %d: %s" % (w, seed, res["digest"]))
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
            f.write("\n")
        return

    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        p.error("--seconds must be >= 1")
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(seconds), "--trace", str(a.trace)]
    if a.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, "%s-seed%d.tsv" % (a.workload, a.seed))]
    lines = run_binary(cmd).strip().splitlines()
    if not lines:
        fail("driver printed no result")
    res = json.loads(lines[-1])

    problems = list(res["checks_failed"])
    recorded = load_json(DIGESTS).get(a.workload, {}) if os.path.isfile(DIGESTS) else {}
    expected = recorded.get(str(a.seed))
    if expected is not None and expected != res["digest"]:
        problems.append("%s: outcome digest %s, recorded %s for seed %d"
                        % (a.workload, res["digest"], expected, a.seed))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}
    metrics = res["metrics"]
    unknown = sorted(set(metrics) - set(listed))
    if unknown:
        problems.append("%s: metrics %s are not in BENCHMARK.json" % (a.workload, unknown))
    for name, unit in listed.items():
        if name not in metrics:
            if a.trace:  # a layer this workload does not exercise
                metrics[name] = {"value": 0.0, "unit": unit}
            else:
                problems.append("%s: metric %s missing" % (a.workload, name))
        elif metrics[name]["unit"] != unit:
            problems.append("%s: %s is in %s, BENCHMARK.json says %s"
                            % (a.workload, name, metrics[name]["unit"], unit))
    for msg in problems:
        print("perfbench: CHECK FAILED: " + msg, file=sys.stderr)

    host = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": res["compiler"],
        "build_type": res["build_type"],
        "source": source_id(),
        "threads": res["threads"],
        "reps": res["reps"],
        "digest": res["digest"],
        "digest_recorded": expected is not None,
    }
    result = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: metrics[k] for k in listed if k in metrics},
    }
    with open(os.path.join(bdir, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                            "host": host, "result": result}) + "\n")
    print("host: " + json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
