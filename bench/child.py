"""One timed `peersurvey` CLI call in a fresh interpreter.

Usage: child.py SPAWNED_AT SRC_DIR TRACE STDOUT_PATH SPANS_PATH ARGV...

SPAWNED_AT is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so setup_s covers
interpreter start and the package import.  ARGV goes to
`peersurvey.cli.dispatch`, whose stdout is written to STDOUT_PATH.  With
TRACE=1 the package's public functions are wrapped in spans, which are
written to SPANS_PATH.  The last line printed is one JSON object.
"""

import contextlib
import dataclasses
import json
import os
import resource
import sys
import time


def main():
    spawned_at = float(sys.argv[1])
    src_dir, trace = sys.argv[2], sys.argv[3] == "1"
    stdout_path, spans_path, argv = sys.argv[4], sys.argv[5], sys.argv[6:]
    sys.path.insert(0, src_dir)
    result = {}
    if trace:
        started = time.monotonic()
        import scipy.stats  # noqa: F401  (timed on its own: the bulk of setup)
        result["setup.scipy_import_s"] = time.monotonic() - started

    package_started = time.monotonic()
    import peersurvey.cli

    imported = time.monotonic()
    result["setup_s"] = imported - spawned_at
    if trace:
        result["setup.package_import_s"] = imported - package_started

    if not os.path.abspath(peersurvey.cli.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        print(f"peersurvey was imported from {peersurvey.cli.__file__}, not {src_dir}",
              file=sys.stderr)
        return 2

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder(run_id=str(os.getpid()))
        recorder.install()

    with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        exit_code = peersurvey.cli.dispatch(argv)
        result["wall_s"] = time.perf_counter() - t0

    result["exit_code"] = exit_code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder.spans)
        result["absent"] = recorder.absent
        with open(spans_path, "w") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
