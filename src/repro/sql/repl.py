"""An interactive SQL shell for Immortal DB.

Run::

    python -m repro.sql.repl [database-file]

Without an argument the database is in-memory (and vanishes on exit);
with a path it is file-backed and durable.  Statements end with ``;`` and
may span lines; they take no ``?`` parameters — those belong to
``Session.execute(sql, params)`` and the service's ``"params"``.
Meta-commands:

    \\t              list tables
    \\i <table>      storage inspection report
    \\check          run the full integrity checker
    \\now            show the simulated clock
    \\advance <ms>   advance the simulated clock
    \\q              quit
"""

from __future__ import annotations

import sys

from repro.core.engine import ImmortalDB
from repro.core.inspect import format_report, inspect_table
from repro.core.integrity import verify_integrity
from repro.errors import ImmortalDBError
from repro.sql.executor import Result, Session


def render_rows(result: Result) -> str:
    """Render a statement Result as an aligned text table."""
    if not result.rows:
        return result.message or f"({result.rowcount} row(s))"
    columns = list(result.rows[0])
    widths = {
        c: max(len(c), *(len(str(r.get(c))) for r in result.rows))
        for c in columns
    }
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    sep = "-+-".join("-" * widths[c] for c in columns)
    body = "\n".join(
        " | ".join(str(row.get(c)).ljust(widths[c]) for c in columns)
        for row in result.rows
    )
    return f"{header}\n{sep}\n{body}\n({len(result.rows)} row(s))"


def run_meta(db: ImmortalDB, line: str) -> bool:
    """Handle a meta-command; returns False to quit."""
    parts = line.split()
    command = parts[0]
    if command == "\\q":
        return False
    if command == "\\t":
        for name, schema in sorted(db.catalog.tables.items()):
            kind = "immortal" if schema.immortal else (
                "snapshot" if schema.snapshot_enabled else "plain"
            )
            print(f"  {name}  ({kind}, key={schema.key_column})")
    elif command == "\\i" and len(parts) == 2:
        print(format_report(inspect_table(db.table(parts[1]))))
    elif command == "\\check":
        problems = verify_integrity(db)
        print("CLEAN" if not problems else "\n".join(problems))
    elif command == "\\now":
        print(db.now())
    elif command == "\\advance" and len(parts) == 2:
        db.advance_time(float(parts[1]))
        print(f"clock is now {db.now()}")
    else:
        print(f"unknown meta-command: {line}")
    return True


def main(argv: list[str] | None = None) -> int:
    r"""Entry point: read statements from stdin until \q or EOF."""
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else None
    db = ImmortalDB(path)
    session = Session(db)
    where = path or "in memory"
    print(f"Immortal DB ({where}) — statements end with ';', \\q quits")
    buffer = ""
    try:
        while True:
            try:
                prompt = "....> " if buffer else "sql> "
                line = input(prompt)
            except EOFError:
                break
            stripped = line.strip()
            if not buffer and stripped.startswith("\\"):
                if not run_meta(db, stripped):
                    break
                continue
            buffer += line + "\n"
            if not stripped.endswith(";"):
                continue
            statement, buffer = buffer, ""
            try:
                for result in session.execute_script(statement):
                    print(render_rows(result))
            except ImmortalDBError as exc:
                print(f"error: {exc}")
    finally:
        session.close()
        db.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
