"""fracpoly benchmark: three workloads driven through the `fracpoly` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload verify-all --seed 1 --seconds 44 --trace 0

Every workload pass runs in a fresh interpreter (bench/worker.py), so the
package's caches start cold as they do for each CLI user.  A run repeats
passes of the same seeded inputs until --seconds are used, reports the
latencies at reference speed (bench/worker.py), checks the outputs after
the timed passes (bench/checks.py) and prints one JSON result as its last
stdout line.  With --trace 1 the run instead times one untraced pass,
one traced pass (bench/tracer.py) and an `-X importtime` import, and
reports the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SAMPLES = 100  # latency samples per run of a request workload, so p90 has ten beyond it
MIN_PASSES = 3  # so that a median over passes can drop one disturbed pass
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every run ends well inside 180 s

UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "peak_rss_mb": "MB", "success_rate": "ratio"}


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FRACPOLY_PRECISION", None)  # inputs must not depend on the caller's environment
    return env


def _worker(mode: str, job: dict | None, deadline: float, extra_args=()) -> tuple[dict, float]:
    cmd = [sys.executable, *extra_args, str(BENCH / "worker.py"), str(ROOT), mode]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=json.dumps(job) if job is not None else "",
                              capture_output=True, text=True, cwd=ROOT, env=_worker_env(),
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {mode} timed out")
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise WorkerError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout)
    out["stderr"] = proc.stderr
    return out, elapsed


def _ops(requests) -> int:
    return sum(checks.SUITE_COUNT if r["cmd"] == "verify-all" else 1 for r in requests)


def _check_pass(requests, results, reference=None) -> list[str]:
    """Failure reasons of one pass; later passes must repeat the first byte for byte."""
    failures = []
    for i, (req, res) in enumerate(zip(requests, results)):
        if reference is None:
            reasons = checks.check(req, res)
        else:
            ref = reference[i]
            same = (res["exit"], res["stdout"], res["crash"]) == (ref["exit"], ref["stdout"], ref["crash"])
            reasons = ref["reasons"] if same else ["output differs from the first pass"] * _ops([req])
        res["reasons"] = reasons
        failures += [f"{' '.join(req['args'])}: {r}" for r in reasons if r is not None]
    return failures


def _regular_ok(requests, results) -> bool:
    return all(r is None for req, res in zip(requests, results) if req["expect"] == "ok"
               for r in res["reasons"])


def untraced_run(requests, seconds: float, deadline: float) -> dict:
    start = time.perf_counter()
    _worker("setup", None, deadline)  # compiles bytecode; users do not pay this per run
    setup, walls, rss, pass_s, per_request, raw, outputs = [], [], [], [], [], [], []
    while True:
        out, elapsed = _worker("pass", {"requests": requests, "spans": None}, deadline)
        pass_s.append(elapsed)
        setup.append(out["setup_s"])
        walls.append(out["wall_s"])
        rss.append(out["peak_rss_mb"])
        per_request.append([r["scaled_s"] for r in out["results"]])
        raw.append([r["latency_s"] for r in out["results"]])
        outputs.append(out["results"])
        used = time.perf_counter() - start
        requests_done = len(walls) * len(requests)
        enough = len(walls) >= MIN_PASSES and (requests_done >= MIN_SAMPLES or requests[0]["cmd"] == "verify-all")
        if enough and used + statistics.median(pass_s) > seconds:
            break
    # the checks run after the timed passes, so that they leave more time to measure
    failures, correct = [], True
    for results in outputs:
        failures += _check_pass(requests, results, None if results is outputs[0] else outputs[0])
        correct = correct and _regular_ok(requests, results)
    attempted = len(outputs) * _ops(requests)
    while len(setup) < SETUP_SAMPLES:
        setup.append(_worker("setup", None, deadline)[0]["setup_s"])
    # latencies at reference speed (worker.py), which takes out the slow
    # phases of a shared host; wall_s has each request at its median over the
    # passes, which drops a disturbed pass
    pooled = [s * 1000 for p in per_request for s in p]
    wall_s = sum(statistics.median(v) for v in zip(*per_request))
    if len(pooled) >= MIN_SAMPLES:
        p50, p90 = statistics.median(pooled), statistics.quantiles(pooled, n=10, method="inclusive")[8]
    else:  # verify-all: a few samples of its one request
        p50 = p90 = statistics.median(pooled)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": statistics.median(rss),
        "success_rate": (attempted - len(failures)) / attempted,
    }
    samples = {"passes": len(walls), "requests": len(requests), "latency_samples": len(pooled),
               "setup_samples": len(setup), "pass_wall_s": walls, "setup_s": setup,
               "scaled_latency_s": per_request, "latency_s": raw}
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures),
            "correct": correct, "failures": failures, "samples": samples}


def importtime_split(stderr: str) -> dict:
    """setup.* seconds from `-X importtime`: each module's self time goes to the
    outermost third-party package above it, else to fracpoly if fracpoly
    imported it."""
    nodes = []  # post-order: a parent line follows its children
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        name = parts[2]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        nodes.append((depth, name.strip(), int(parts[0])))
    owners = {"scipy": 0, "mpmath": 0, "click": 0, "fracpoly": 0}
    # walk the post-order list backwards: parents come before their children
    chain: list[tuple[int, str | None]] = []
    for depth, name, self_us in reversed(nodes):
        while chain and chain[-1][0] >= depth:
            chain.pop()
        inherited = chain[-1][1] if chain else None
        top = name.split(".")[0]
        if inherited in ("scipy", "mpmath", "click"):
            owner = inherited
        elif top in owners:
            owner = top
        else:
            owner = inherited
        chain.append((depth, owner))
        if owner is not None:
            owners[owner] += self_us
    return {f"setup.{k}_s": v / 1e6 for k, v in owners.items()}


def traced_run(requests, workload: str, seed: int, deadline: float) -> dict:
    _worker("setup", None, deadline)
    imports, _ = _worker("setup", None, deadline, extra_args=("-X", "importtime"))
    base, _ = _worker("pass", {"requests": requests, "spans": None}, deadline)
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl.gz"
    traced, _ = _worker("pass", {"requests": requests, "spans": str(spans_path)}, deadline)
    failures = _check_pass(requests, base["results"])
    correct = _regular_ok(requests, base["results"])
    failures += _check_pass(requests, traced["results"], base["results"])
    correct = correct and _regular_ok(requests, traced["results"])
    metrics = dict(traced["layers"])
    metrics.update(importtime_split(imports["stderr"]))
    metrics["trace.overhead_share"] = (traced["wall_s"] - base["wall_s"]) / base["wall_s"]
    attempted = 2 * _ops(requests)
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures), "correct": correct,
            "failures": failures, "absent": traced["absent"],
            "samples": {"spans": traced["spans"], "spans_file": str(spans_path.relative_to(ROOT))}}


def _git_sha() -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(workload: str, seed: int) -> dict:
    import mpmath

    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": len(os.sched_getaffinity(0)),
            "git_sha": _git_sha()}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fracpoly" / "cli.py").is_file():
        print(f"error: no fracpoly source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    requests = WORKLOADS[args.workload](args.seed)
    st = stamp(args.workload, args.seed)
    print(json.dumps({"stamp": st}))
    try:
        if args.trace:
            res = traced_run(requests, args.workload, args.seed, deadline)
        else:
            res = untraced_run(requests, args.seconds, deadline)
    except (WorkerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in res["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name:52} {m['value']!r:>24} {m['unit']}")
    for f in res["failures"]:
        print(f"failed: {f}")
    if res.get("absent"):
        print(f"absent: {', '.join(res['absent'])}")
    if not args.trace:
        smp = res["samples"]
        print(f"samples: {smp['passes']} passes of {smp['requests']} requests, "
              f"{smp['latency_samples']} latency samples, {smp['setup_samples']} set-up samples")
    record = {"stamp": st, **{k: v for k, v in res.items() if k != "metrics"}, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
