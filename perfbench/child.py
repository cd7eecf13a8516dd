"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py SPANS_FILE [braidperm CLI arguments]

run.py starts this with PYTHONPATH pointing at the checkout's ``src``.  The
first statement imports ``braidperm.cli``, so the monotonic clock read right
after it, minus the parent's clock read before the spawn, is the set-up time:
interpreter start plus the import.  With CLI arguments the pass calls
``braidperm.cli.main`` once and times it; SPANS_FILE ``-`` means untraced,
anything else is where the traced pass writes its spans.  The last line of
stdout is a JSON object with the clock readings, the exit code and the peak
resident memory.
"""

import time

import braidperm.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spans_path, *argv = sys.argv[1:]
    result = {"ready": READY, "module": braidperm.cli.__file__}
    if argv:
        tracer = None
        if spans_path != "-":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result["exit_code"] = braidperm.cli.main(argv)
        result["verify_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall().write(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
