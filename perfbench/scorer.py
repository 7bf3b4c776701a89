"""Score slices of held-out apps on request, as one caller of the library.

    python3 perfbench/scorer.py

reads one request a line from standard input, ``IN.npz<TAB>OUT.npz<TAB>
TRACE_DIR`` (TRACE_DIR may be empty), and answers each with one line,
``done`` or ``error <message>``.  IN holds the pattern matrix ``u``, the
noise parameters ``r`` and ``epsilon``, the apps ``x`` and ``n_batch``.
The process first calls ``assign_patterns`` on the apps, untimed, for
WARM_UP_S.  Then it runs ``assign_matrix`` on the first ``n_batch`` apps
as one batch, then ``assign_patterns`` on every app, one after the other,
and writes the assignments and timings to OUT.  With TRACE_DIR the library
calls of that request are traced (see tracer.py).  It ends at the end of
its input.

The library is imported once, so the requests of a run share one process
and none of them pays the import.
"""
import itertools
import sys
import time

import numpy as np

import permpatterns as pp
import tracer

WARM_UP_S = 0.25


def warm_up(x, u, r, eps) -> None:
    """Untimed single-app calls for WARM_UP_S: the process has waited while
    the CLI commands ran, and its first calls after that run slow."""
    end = time.perf_counter() + WARM_UP_S
    for row in itertools.cycle(x):
        pp.assign_patterns(row, u, r, eps)
        if time.perf_counter() > end:
            return


def score(x: np.ndarray, u, r: float, eps: float, n_batch: int) -> dict:
    start = time.perf_counter()
    z_batch = pp.assign_matrix(pp.BinaryMatrix(x[:n_batch]), u, r, eps).data
    batch_s = time.perf_counter() - start
    z_single = np.zeros((x.shape[0], u.rows), dtype=np.uint8)
    latencies_ms = np.zeros(x.shape[0])
    for i, row in enumerate(x):
        start = time.perf_counter()
        z_single[i] = pp.assign_patterns(row, u, r, eps)
        latencies_ms[i] = (time.perf_counter() - start) * 1000.0
    return {"z_batch": z_batch, "batch_s": batch_s, "z_single": z_single,
            "latencies_ms": latencies_ms}


def serve(in_path: str, out_path: str, trace_dir: str) -> None:
    """One request: warm up, then score with the calls traced if asked."""
    with np.load(in_path) as inp:
        u, x, n_batch = pp.BinaryMatrix(inp["u"]), inp["x"], int(inp["n_batch"])
        r, eps = float(inp["r"]), float(inp["epsilon"])
    warm_up(x, u, r, eps)
    spans = tracer.Tracer(trace_dir) if trace_dir else None
    uninstall = tracer.install(spans) if spans else None
    try:
        result = score(x, u, r, eps, n_batch)
    finally:
        if spans:
            uninstall()
            spans.flush()
    np.savez(out_path, **result)


def main() -> None:
    for line in sys.stdin:
        try:
            serve(*line.rstrip("\n").split("\t"))
            answer = "done"
        except Exception as exc:    # reported to the caller as a failure
            answer = f"error {exc!r}".replace("\n", " ")
        print(answer, flush=True)


if __name__ == "__main__":
    main()
