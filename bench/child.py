"""One round of a workload in a fresh interpreter.

Usage: python3 bench/child.py <start_ns> <src dir> <job.json>

<start_ns> is time.monotonic_ns() in the parent just before it started
this process, so set-up time runs from process start until exacthom.cli
is imported from <src dir>.  The job lists the CLI commands and says
whether to trace.  Each command runs through
exacthom.cli.main with its stdout and stderr captured.  The last line of
this process's stdout is one JSON object with the results.
"""

import sys
import time


def peak_rss_mib() -> float:
    """High-water resident set of this process's own address space (VmHWM).

    ru_maxrss would also count the benchmark's resident set, which this
    process carries from fork until exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    start_ns, src, job_path = int(sys.argv[1]), sys.argv[2], sys.argv[3]
    sys.path.insert(0, src)
    import exacthom.cli as cli

    setup_s = (time.monotonic_ns() - start_ns) / 1e9

    import contextlib
    import io
    import json
    import os

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"exacthom imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.install()
    results = []
    cpu0 = time.process_time()
    for index, argv in enumerate(job["commands"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = index
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a lost round
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        results.append(
            {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:], "wall_s": wall}
        )
    cpu_s = time.process_time() - cpu0
    payload = {
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib(),
        "commands": results,
    }
    if tracer is not None:
        payload["layers"] = tracer.metrics()
        if job.get("spans_out"):
            tracer.dump(job["spans_out"])
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
