"""Run one qeslab CLI job in this fresh interpreter and record its cost.

    python3 child.py RECORD_JSON SPANS_TSV|- JOB_ID -- CLI_ARGS...

Set-up is the interpreter start, `import qeslab.cli` and
`build_parser()`; it ends at the `ready` stamp (CLOCK_MONOTONIC, which
the parent compares with its own stamp taken before the spawn).  The job
is one `qeslab.cli.main(argv)` call between the `start` and `end` stamps
(CLOCK_MONOTONIC too, so the parent can take out the time it held this
process stopped); its stdout goes to this process's stdout.  With a spans path the call runs under the tracer and the spans
are written out after the call returns.
"""

import json
import resource
import sys
import time
import traceback


def main() -> int:
    record_path, spans_path, job = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RECORD SPANS|- JOB -- CLI_ARGS...")
    argv = sys.argv[5:]

    from qeslab import cli

    cli.build_parser()
    ready = time.monotonic()

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer(job)
        tracer.install()

    status, error = None, None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.monotonic()
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:  # the job failed; the parent counts it
        error = traceback.format_exc()
    end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()

    record = {
        "job": job,
        "ready": ready,
        "status": status,
        "error": error,
        "start": start,
        "end": end,
        "cpu_s": (after.ru_utime - before.ru_utime)
        + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary()
        tracer.write_tsv(spans_path)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
