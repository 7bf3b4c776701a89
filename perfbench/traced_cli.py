"""Run the permpatterns command line with its module functions traced.

    python3 perfbench/traced_cli.py TRACE_DIR COMMAND [ARGS...]

behaves like ``permpatterns COMMAND [ARGS...]`` and appends the spans of
this process and of its pool workers to TRACE_DIR/spans-<pid>.jsonl.
"""
import sys
import time

import tracer


def main() -> None:
    trace_dir, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import permpatterns.cli as cli
    end = time.perf_counter()
    spans = tracer.Tracer(trace_dir)
    spans.record("cli.import", start, end)
    tracer.install(spans)
    try:
        cli.main(args=args, prog_name="permpatterns")
    finally:
        spans.flush()


if __name__ == "__main__":
    main()
