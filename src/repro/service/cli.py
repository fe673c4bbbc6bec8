"""``python -m repro serve`` — run the verification service.

Examples::

    python -m repro serve --data-dir ./service-data
    python -m repro serve --port 8080 --max-running 2 --session-workers 2
    python -m repro serve --queue-limit 4 --max-attempts 2 --deadline 30

The server prints one ``ready`` line with the bound address once it is
accepting requests (port 0 picks a free port — the line is how scripts
learn which).  State lives entirely under ``--data-dir``; killing the
server (even ``kill -9``) and restarting it with the same directory
re-attaches every session: finished jobs are replayed from the
journals, in-flight jobs resume, and the result cache keeps serving.

A quick round-trip with curl::

    curl -s localhost:8080/version
    curl -s -X POST localhost:8080/v1/sessions \\
        -d '{"grid": "4x2,8x2", "certify": true}'
    curl -s localhost:8080/v1/sessions/<id>?wait=10
    curl -s localhost:8080/v1/sessions/<id>/result
    curl -s localhost:8080/v1/artifacts/<digest>
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from ..campaign.cli import add_retry_options, retry_policies
from ..core.cli import add_budget_options
from ..errors import CampaignError
from .app import ServiceApp
from .sessions import SessionManager

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Long-lived verification service: HTTP/JSON job submission, "
            "a content-addressed result cache, journal-backed sessions "
            "that survive kill -9, and explicit backpressure.  The budget "
            "flags set the first attempt of every job whose request names "
            "no budget of its own; every retry multiplies them by "
            "--escalation."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default localhost)"
    )
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free one (default 8080)",
    )
    parser.add_argument(
        "--data-dir", default="./repro-service", metavar="DIR",
        help="service state root: cache/, artifacts/, sessions/ "
        "(default ./repro-service)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="max sessions admitted but not finished; beyond it submits "
        "get 429 + Retry-After (default 16)",
    )
    parser.add_argument(
        "--max-running", type=int, default=1, metavar="N",
        help="sessions running concurrently (default 1)",
    )
    parser.add_argument(
        "--session-workers", type=int, default=1, metavar="N",
        help="campaign worker processes per session (default 1)",
    )
    add_budget_options(parser)
    add_retry_options(parser)
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    log = (lambda message: None) if args.quiet else (
        lambda message: print(message, flush=True)
    )
    try:
        retry, degrade = retry_policies(args)
        manager = SessionManager(
            args.data_dir,
            queue_limit=args.queue_limit,
            max_running=args.max_running,
            session_workers=args.session_workers,
            retry=retry,
            degrade=degrade,
            log=log,
        )
        requeued = manager.reattach()
        app = ServiceApp(manager, args.host, args.port)
    except (CampaignError, OSError) as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    if requeued:
        log(f"re-attached {len(requeued)} unfinished session(s)")
    # SIGTERM stops the server the way Ctrl-C does.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        host, port = app.server_address[:2]
        print(f"ready http://{host}:{port}", flush=True)
        app.serve_forever()
    except KeyboardInterrupt:
        pass
    log("shutting down")
    app.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
