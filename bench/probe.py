"""Fresh-process probes for one workload's command chain.

    python3 bench/probe.py setup SPEC
    python3 bench/probe.py rss SPEC

SPEC is a JSON object with ``src`` (directory holding the ``qubdoe``
package), ``chain`` (command lines), ``stop`` (names in ``qubdoe.cli``)
and optionally ``cpu_count`` (a cap for ``os.cpu_count``).

``setup`` imports ``qubdoe.cli`` and runs the chain until the first call
of a ``stop`` name (the first simulate or sweep), then prints
``{"ready_ns": t}`` with ``t`` read from ``CLOCK_MONOTONIC``, the clock the
parent read just before spawning this process.  ``rss`` runs the whole
chain and prints ``{"maxrss_kb": peak resident set size}``.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time


class Ready(BaseException):
    """Raised at the first stop call; passes through the CLI's handlers."""


def _stop(*args, **kwargs):
    raise Ready(time.clock_gettime_ns(time.CLOCK_MONOTONIC))


def main() -> int:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if spec.get("cpu_count"):
        os.cpu_count = lambda: spec["cpu_count"]
    sys.path.insert(0, spec["src"])
    import qubdoe.cli as cli

    if mode == "setup":
        for name in spec["stop"]:
            if hasattr(cli, name):
                setattr(cli, name, _stop)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [cli.main(argv) for argv in spec["chain"]]
    except Ready as ready:
        print(json.dumps({"ready_ns": ready.args[0]}))
        return 0
    if any(codes):
        print(f"exit codes {codes}: {sink.getvalue()[-2000:]}", file=sys.stderr)
        return 1
    if mode == "setup":
        print("no stop point reached: " + ", ".join(spec["stop"]), file=sys.stderr)
        return 1
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
