"""Command-line entry point: ``python -m repro.service``.

Runs the repair daemon in the foreground until SIGINT/SIGTERM, then shuts
the HTTP server and job workers down cleanly.  The one line printed on
startup (``listening on http://host:port``) doubles as the readiness signal
for supervisors and tests.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.obs import LEVELS
from repro.service.daemon import serve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the provable-repair job daemon.",
    )
    parser.add_argument("--state-dir", required=True,
                        help="durable root for job documents, pool checkpoints, cache")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (keep it loopback: jobs carry pickled networks)")
    parser.add_argument("--port", type=int, default=8642,
                        help="bind port (0 picks an ephemeral port)")
    parser.add_argument("--job-workers", type=int, default=2,
                        help="how many jobs run concurrently")
    parser.add_argument("--log-level", default="info", choices=LEVELS,
                        help="structured JSON log level on stderr ('off' silences it)")
    options = parser.parse_args(argv)

    server = serve(
        options.state_dir,
        host=options.host,
        port=options.port,
        job_workers=options.job_workers,
        log_level=options.log_level,
    )
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port}", flush=True)

    def _terminate(*_):
        # Calling server.shutdown() from the serving thread would deadlock;
        # unwinding via KeyboardInterrupt exits serve_forever the same way
        # Ctrl-C does.
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
