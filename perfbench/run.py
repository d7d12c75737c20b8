#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source, runs one workload,
checks its outputs and prints the result.

    python3 perfbench/run.py --workload paper|testbed-1k|fleet-100k \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest          # bare vs wrapped, short cases
    python3 perfbench/run.py ... --write-ref     # record this seed's reference

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics of the mode (end-to-end with --trace 0, per-layer with
--trace 1, names and units from BENCHMARK.json). Lines before it give each
metric with its sample count, the host and the output check. Spans of a
traced run are written to .bench_build/perfbench/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFS = HERE / "refs.json"
BINARY_TIMEOUT_S = 170

# Outputs a later change may legitimately move by a little: the CNN's
# verdicts depend on its training's summation order, which ROADMAP item 4
# changes. Everything else must match its reference exactly.
TOLERANCE = {
    "paper": {"cnn.acc": ("abs", 0.03), "cnn.predicted": ("rel", 0.05)},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def source_identity():
    """git commit when the tree is a repository, and always a digest of src/."""
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


# --- output check --------------------------------------------------------------

def invariants(workload, out):
    """Properties every seed's outputs must have."""
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    if workload == "paper":
        need(0 < out["dataset.malicious"] < out["dataset.rows"],
             "training capture lacks one class")
        for m in ("rf", "kmeans", "cnn"):
            need(out[f"{m}.windows"] == 60, f"{m}: expected 60 windows")
            need(out[f"{m}.rows"] == out["rf.rows"], f"{m}: packet stream differs")
            need(out[f"{m}.truth"] == out["rf.truth"], f"{m}: ground truth differs")
            need(0 < out[f"{m}.predicted"] <= out[f"{m}.rows"], f"{m}: bad predicted count")
            need(out[f"{m}.acc"] >= 0.8, f"{m}: accuracy below 0.8")
    elif workload == "testbed-1k":
        need(out["windows"] == 20, "expected 20 windows")
        need(0 < out["truth"] < out["rows"], "rows lack one class")
        need(0 < out["predicted"] <= out["rows"], "bad predicted count")
        need(out["mitigate.actions"] > 0, "mitigation never acted")
        need(out["mitigate.acl_dropped"] + out["mitigate.ratelimit_dropped"] > 0,
             "edge filter dropped nothing")
        need(out["benign.completions"] > 0, "no benign request completed")
        need(out["acc.rf"] >= 0.5, "rf accuracy below 0.5")
    elif workload == "fleet-100k":
        need(out["conservation_ok"] == 1, "packet conservation failed")
        need(out["windows"] == 20, "expected 20 windows")
        need(out["rows"] == out["sent"], "capture missed device sends")
        need(out["truth"] == out["flood_sent"], "ground truth is not the flood")
        need(out["truth"] <= out["predicted"] <= out["rows"], "bad predicted count")
        need(out["mitigate.actions"] > 0 and out["mitigate.acl_dropped"] > 0,
             "mitigation never blocked a flood source")
    return bad


def compare_reference(workload, seed, out):
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        return None, []
    tol = TOLERANCE.get(workload, {})
    bad = []
    for name, want in ref.items():
        got = out.get(name)
        if got is None:
            bad.append(f"{name}: missing")
            continue
        kind, limit = tol.get(name, ("abs", 0.0))
        allowed = limit * abs(want) if kind == "rel" else limit
        if abs(got - want) > allowed:
            bad.append(f"{name}: {got!r} != reference {want!r}")
    return True, bad


def write_reference(workload, seed, out):
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    refs.setdefault(workload, {})[str(seed)] = out
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    log(f"perfbench: wrote reference {workload} seed {seed} to {REFS}")


# --- main ------------------------------------------------------------------------

def run_binary(binary, argv):
    try:
        proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload exceeded {BINARY_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"workload exited with code {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no report", 1)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-ref", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")

    binary = build()
    if args.selftest:
        rep = run_binary(binary, ["--workload", "selftest", "--seed", str(args.seed)])
        for f in rep["check_failures"]:
            log(f"selftest FAILED: {f}")
        print(json.dumps({"selftest": not rep["check_failures"], "outputs": rep["outputs"]}))
        sys.exit(0 if not rep["check_failures"] else 1)

    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    rep = run_binary(binary, argv)

    out = rep["outputs"]
    problems = list(rep["check_failures"]) + invariants(args.workload, out)
    if args.write_ref:
        # Replaces the seed's reference after a deliberate change; the run
        # must still pass its in-process checks and invariants.
        if problems:
            fail("not writing a reference for a run that fails its checks: "
                 + "; ".join(problems))
        write_reference(args.workload, args.seed, out)
    has_ref, ref_bad = compare_reference(args.workload, args.seed, out)
    problems += ref_bad

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = {m["name"]: m for m in rep["metrics"]}
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and not args.trace:
            fail(f"workload did not report end-to-end metric {m['name']}", 1)
        # A per-layer metric a workload does not exercise reads 0 (idle layer).
        value = got["value"] if got else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        samples = got["samples"] if got else 0
        log(f"  {m['name']:32s} {value:>16.6g} {m['unit']:10s} samples={samples}")
    unknown = set(measured) - {m["name"] for m in wanted}
    if unknown:
        fail(f"workload reported metrics missing from BENCHMARK.json: {sorted(unknown)}", 1)

    commit, src_digest = source_identity()
    host = dict(rep["host"], git_commit=commit, src_sha256=src_digest)
    log(f"  host {json.dumps(host)}")
    log(f"  check: {'reference + ' if has_ref else ''}invariants "
        f"{'ok' if not problems else 'FAILED'}")
    for p in problems:
        log(f"    {p}")

    # attempted counts the batch calls the run issued into the library; a run
    # whose output check fails counts every one of them as failed.
    correct = not problems
    attempted = max(int(rep["attempted"]), 1)
    failed = 0 if correct else attempted
    print(json.dumps({"report": {"host": host, "outputs": out,
                                 "metrics": rep["metrics"], "problems": problems}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
