"""The catalog: table schemas and durable engine roots.

"By recognizing the new keyword IMMORTAL, we set a flag in the table catalog
that indicates the immortal property of that table.  This flag is visible to
the storage engine" (Section 4.1).  The flag controls three things, all
enforced by the table/engine layers:

1. no garbage collection of historical versions,
2. a PTT entry is written for every committing update transaction,
3. AS OF historical queries are enabled.

The catalog serializes to JSON inside the boot (meta) page together with the
next table id.  The boot page is a logged page: every DDL statement logs its
image in one forced record, and restart redoes it before reading the catalog
back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import CatalogError, TableExistsError, TableNotFoundError
from repro.core.rowcodec import ColumnType


@dataclass(frozen=True)
class ColumnDef:
    name: str
    column_type: ColumnType

    def to_json(self) -> dict:
        """Serialize to a JSON-compatible dict."""
        return {"name": self.name, "type": self.column_type.value}

    @classmethod
    def from_json(cls, data: dict) -> "ColumnDef":
        """Deserialize from a JSON-compatible dict."""
        return cls(data["name"], ColumnType(data["type"]))


@dataclass
class TableSchema:
    """Durable description of one table."""

    name: str
    table_id: int
    columns: list[ColumnDef]
    key_column: str
    immortal: bool = False
    snapshot_enabled: bool = False
    root_pid: int = 0          # B-tree root (fixed for the table's lifetime)
    tsb_root_pid: int = 0      # TSB history index root (0 = no TSB index)

    def to_json(self) -> dict:
        """Serialize to a JSON-compatible dict."""
        return {
            "name": self.name,
            "table_id": self.table_id,
            "columns": [c.to_json() for c in self.columns],
            "key_column": self.key_column,
            "immortal": self.immortal,
            "snapshot_enabled": self.snapshot_enabled,
            "root_pid": self.root_pid,
            "tsb_root_pid": self.tsb_root_pid,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TableSchema":
        """Deserialize from a JSON-compatible dict."""
        return cls(
            name=data["name"],
            table_id=data["table_id"],
            columns=[ColumnDef.from_json(c) for c in data["columns"]],
            key_column=data["key_column"],
            immortal=data["immortal"],
            snapshot_enabled=data["snapshot_enabled"],
            root_pid=data["root_pid"],
            tsb_root_pid=data["tsb_root_pid"],
        )


@dataclass
class Catalog:
    """All durable engine roots, serialized into the boot page."""

    tables: dict[str, TableSchema] = field(default_factory=dict)
    next_table_id: int = 1

    def add_table(self, schema: TableSchema) -> None:
        if schema.name in self.tables:
            raise TableExistsError(f"table {schema.name!r} already exists")
        self.tables[schema.name] = schema

    def remove_table(self, name: str) -> TableSchema:
        try:
            return self.tables.pop(name)
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    def get(self, name: str) -> TableSchema:
        try:
            return self.tables[name]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    def by_id(self, table_id: int) -> TableSchema:
        for schema in self.tables.values():
            if schema.table_id == table_id:
                return schema
        raise TableNotFoundError(f"no table with id {table_id}")

    def allocate_table_id(self) -> int:
        table_id = self.next_table_id
        self.next_table_id += 1
        return table_id

    # -- serialization ------------------------------------------------------

    def to_blob(self) -> bytes:
        doc = {
            "format": 1,
            "next_table_id": self.next_table_id,
            "tables": [schema.to_json() for schema in self.tables.values()],
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_blob(cls, blob: bytes) -> "Catalog":
        if not blob:
            return cls()
        try:
            doc = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CatalogError(f"corrupt catalog blob: {exc}") from exc
        if doc.get("format") != 1:
            raise CatalogError(f"unknown catalog format {doc.get('format')!r}")
        catalog = cls(next_table_id=doc["next_table_id"])
        for table_doc in doc["tables"]:
            catalog.add_table(TableSchema.from_json(table_doc))
        return catalog
