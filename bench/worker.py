"""One workload pass in a fresh interpreter: import fracpoly, run requests.

Usage: ``python3 bench/worker.py ROOT setup`` times ``import fracpoly.cli``
and exits; ``python3 bench/worker.py ROOT pass`` also reads a job from
stdin (``{"requests": [...], "spans": path or null}``) and runs each
request through click's in-process runner.  With ``spans`` set, the tracer
is installed after the import and the spans are written to that path.
The result is one JSON object on stdout.

An untraced pass also reports each request's latency at reference speed
(``scaled_s``).  Other tenants of a shared host slow this process by up to
a third for minutes at a time, so the pass times a fixed kernel that shares
no code with fracpoly: every CAL_EVERY_S from a timer signal, also in the
middle of a request, and in a block before the first request and after the
last.  A request's latency leaves out the kernel runs inside it.  Its scaled
latency is its latency times CAL_S over the median kernel time within
CAL_WINDOW_S of the request: its latency on a host where the kernel takes
CAL_S.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

CAL_S = 0.003  # kernel time at reference speed
CAL_EVERY_S = 0.1  # timer period of the kernel runs
CAL_WINDOW_S = 1.0  # kernel samples this close to a request set its speed
CAL_EDGE = 20  # kernel samples before the first and after the last request


def _kernel() -> None:
    """Fixed work of the three kinds fracpoly does, about 1 ms each on one
    core of a 2-core Intel Xeon VM: big-int arithmetic, Fraction and raw
    mpmath arithmetic, and allocation-heavy container work.  Contention
    from other tenants slows these kinds by different amounts."""
    from fractions import Fraction

    from mpmath.libmp import from_rational, mpf_add, mpf_mul, round_nearest

    x, acc = 7 ** 160, 1
    for i in range(1, 800):
        acc = (acc * x + i) % (x + i)
    terms = [Fraction(1, k + 2) for k in range(16)]
    s = sum(terms[i] * terms[15 - i] for i in range(16))
    y = z = from_rational(s.numerator % 997 + 1, 1013, 256, round_nearest)
    for _ in range(250):
        y = mpf_add(mpf_mul(y, z, 256, round_nearest), z, 256, round_nearest)
    table = {}
    for i in range(800):
        table[(i * 7919) % 5003] = [i, str(i), (i, i + 1)]
    sorted(table.items())


class Speed:
    """Timestamped kernel times of one pass."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def probe(self, *_signal) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def timer(self, on: bool) -> None:
        if on:
            signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S if on else 0, CAL_EVERY_S if on else 0)

    def inside(self, start: float, end: float) -> float:
        return sum(dt for t, dt in self.samples if start <= t < end)

    def scale(self, start: float, latency: float) -> float:
        near = [dt for t, dt in self.samples if start - CAL_WINDOW_S <= t <= start + latency + CAL_WINDOW_S]
        return latency * CAL_S / statistics.median(near)


def main() -> int:
    root, mode = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import fracpoly.cli
    setup_s = time.perf_counter() - start
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    job = json.load(sys.stdin)
    from click.testing import CliRunner

    runner = CliRunner()
    invoke = runner.invoke
    tracer = None
    if job.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(fracpoly.cli)
        invoke = tracer.span("cli.invoke", invoke)
    speed = Speed() if tracer is None else None
    results = []
    start = time.perf_counter()
    if speed:
        for _ in range(CAL_EDGE):
            speed.probe()
        speed.timer(True)
    for req in job["requests"]:
        t0 = time.perf_counter()
        res = invoke(fracpoly.cli.cli, req["args"])
        t1 = time.perf_counter()
        latency_s = t1 - t0 - (speed.inside(t0, t1) if speed else 0.0)
        exc = res.exception
        crash = None if exc is None or isinstance(exc, SystemExit) else f"{type(exc).__name__}: {exc}"
        results.append({"exit": res.exit_code, "stdout": res.stdout, "stderr": res.stderr,
                        "crash": crash, "start": t0, "latency_s": latency_s})
    if speed:
        speed.timer(False)
        for _ in range(CAL_EDGE):
            speed.probe()
        for r in results:
            r["scaled_s"] = speed.scale(r["start"], r["latency_s"])
    wall_s = time.perf_counter() - start - (sum(dt for _, dt in speed.samples) if speed else 0.0)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if tracer is not None:
        tracer.write_spans(job["spans"])
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
        out["spans"] = len(tracer.spans)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
