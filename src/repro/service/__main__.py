"""``python -m repro.service`` — serve an engine over TCP.

Quickstart::

    python -m repro.service --port 7070 --demo &
    # then, from any client speaking the framed protocol:
    #   {"op": "sql", "sql": "SELECT * FROM demo WHERE k = 1"}

``--demo`` creates a small immortal table so the temporal surface
(``AS OF``, ``SELECT HISTORY OF``) is explorable immediately.
"""

from __future__ import annotations

import argparse

from repro.core.engine import ImmortalDB
from repro.service.server import SQLService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve an ImmortalDB engine over the framed SQL protocol",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7070)
    parser.add_argument("--path", default=None,
                        help="directory for a file-backed engine "
                             "(default: in-memory)")
    parser.add_argument("--workers", type=int, default=4,
                        help="requests that may execute at once "
                             "(0 = the admission budget alone)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="admission budget (reads shed at 75%%)")
    parser.add_argument("--group-commit", type=int, default=8,
                        help="group-commit window")
    parser.add_argument("--request-timeout", type=float, default=30.0)
    parser.add_argument("--idle-timeout", type=float, default=300.0)
    parser.add_argument("--demo", action="store_true",
                        help="create a demo immortal table with history")
    return parser


def _seed_demo(db: ImmortalDB) -> None:
    db.sql("CREATE IMMORTAL TABLE demo (k INT PRIMARY KEY, v TEXT)")
    for i in range(8):
        db.sql(f"INSERT INTO demo (k, v) VALUES ({i}, 'v0_{i}')")
    db.advance_time(1000.0)
    for i in range(0, 8, 2):
        db.sql(f"UPDATE demo SET v = 'v1_{i}' WHERE k = {i}")
    db.flush_commits()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    db = ImmortalDB(args.path, group_commit_window=args.group_commit)
    if args.demo:
        _seed_demo(db)
    service = SQLService(
        db,
        host=args.host,
        port=args.port,
        pool_workers=args.workers,
        max_inflight=args.max_inflight,
        request_timeout_s=args.request_timeout,
        idle_timeout_s=args.idle_timeout,
    )
    service.start()
    print(f"repro.service listening on {service.host}:{service.port}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
        db.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
