"""Row and key codecs.

Keys are encoded **order-preserving**: comparing the encoded bytes gives the
same order as comparing the values, which is what lets the B-tree and the
TSB-tree treat keys as opaque byte strings.  Integers use offset-binary
(biased) big-endian; text compares bytewise as UTF-8.

Payloads (the non-key columns) are encoded compactly with a per-column null
byte; variable-length text is length-prefixed.
"""

from __future__ import annotations

import enum
import struct

from repro.errors import SchemaError


class ColumnType(enum.Enum):
    SMALLINT = "smallint"   # 2-byte signed
    INT = "int"             # 4-byte signed
    BIGINT = "bigint"       # 8-byte signed
    FLOAT = "float"         # 8-byte IEEE double
    TEXT = "text"           # UTF-8, variable length
    BOOL = "bool"


_INT_SPECS = {
    ColumnType.SMALLINT: (2, 1 << 15),
    ColumnType.INT: (4, 1 << 31),
    ColumnType.BIGINT: (8, 1 << 63),
}


def encode_key(value, column_type: ColumnType) -> bytes:
    """Order-preserving key encoding."""
    if column_type in _INT_SPECS:
        width, bias = _INT_SPECS[column_type]
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"key value {value!r} is not an integer")
        if not -bias <= value < bias:
            raise SchemaError(
                f"key value {value} out of range for {column_type.value}"
            )
        return (value + bias).to_bytes(width, "big")
    if column_type is ColumnType.TEXT:
        if not isinstance(value, str):
            raise SchemaError(f"key value {value!r} is not a string")
        encoded = value.encode("utf-8")
        if b"\x00" in encoded:
            raise SchemaError("text keys may not contain NUL bytes")
        return encoded
    raise SchemaError(f"{column_type.value} cannot be a primary key type")


def decode_key(data: bytes, column_type: ColumnType):
    if column_type in _INT_SPECS:
        width, bias = _INT_SPECS[column_type]
        if len(data) != width:
            raise SchemaError(
                f"key image of {len(data)} bytes, expected {width}"
            )
        return int.from_bytes(data, "big") - bias
    if column_type is ColumnType.TEXT:
        return data.decode("utf-8")
    raise SchemaError(f"{column_type.value} cannot be a primary key type")


def _encode_value(value, column_type: ColumnType) -> bytes:
    if value is None:
        return b"\x00"
    if column_type in _INT_SPECS:
        width, bias = _INT_SPECS[column_type]
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{value!r} is not an integer")
        if not -bias <= value < bias:
            raise SchemaError(f"{value} out of range for {column_type.value}")
        return b"\x01" + (value + bias).to_bytes(width, "big")
    if column_type is ColumnType.FLOAT:
        return b"\x01" + struct.pack(">d", float(value))
    if column_type is ColumnType.BOOL:
        return b"\x01" + (b"\x01" if value else b"\x00")
    if column_type is ColumnType.TEXT:
        if not isinstance(value, str):
            raise SchemaError(f"{value!r} is not a string")
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise SchemaError("text value exceeds 64 KiB")
        return b"\x01" + len(encoded).to_bytes(2, "big") + encoded
    raise SchemaError(f"unknown column type {column_type!r}")


def _decode_value(data: bytes, pos: int, column_type: ColumnType):
    if data[pos] == 0:
        return None, pos + 1
    pos += 1
    if column_type in _INT_SPECS:
        width, bias = _INT_SPECS[column_type]
        return int.from_bytes(data[pos : pos + width], "big") - bias, pos + width
    if column_type is ColumnType.FLOAT:
        return struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if column_type is ColumnType.BOOL:
        return bool(data[pos]), pos + 1
    if column_type is ColumnType.TEXT:
        length = int.from_bytes(data[pos : pos + 2], "big")
        raw = data[pos + 2 : pos + 2 + length]
        return raw.decode("utf-8"), pos + 2 + length
    raise SchemaError(f"unknown column type {column_type!r}")


def _compile(ctype: ColumnType):
    """``(encode, decode)`` for non-null values of one column type: the
    common branch of :func:`_encode_value` / :func:`_decode_value` with the
    type chosen once, so coding a value probes no enum-keyed dict.  Anything
    else (a wrong type, a value out of range) goes to the reference for its
    error, FLOAT and BOOL whole.  ``decode`` starts after the null flag."""
    if ctype in _INT_SPECS:
        width, bias = _INT_SPECS[ctype]

        def encode(value) -> bytes:
            if type(value) is int and -bias <= value < bias:
                return b"\x01" + (value + bias).to_bytes(width, "big")
            return _encode_value(value, ctype)

        def decode(data: bytes, pos: int):
            return int.from_bytes(data[pos : pos + width], "big") - bias, pos + width
    elif ctype is ColumnType.TEXT:
        def encode(value) -> bytes:
            if type(value) is str and len(value) <= 0x3FFF:  # <= 4 bytes a char
                encoded = value.encode("utf-8")
                return b"\x01" + len(encoded).to_bytes(2, "big") + encoded
            return _encode_value(value, ctype)

        def decode(data: bytes, pos: int):
            end = pos + 2 + int.from_bytes(data[pos : pos + 2], "big")
            return data[pos + 2 : end].decode("utf-8"), end
    else:
        return (lambda value: _encode_value(value, ctype),
                lambda data, pos: _decode_value(data, pos - 1, ctype))
    return encode, decode


class RowCodec:
    """Encodes rows (dicts) for one table schema.

    The primary-key column is carried in the record's key image; the payload
    holds all remaining columns in schema order.  Each column's encoder and
    decoder are chosen once, here; the module-level functions are the
    reference the tests hold them equal to.
    """

    def __init__(
        self,
        columns: list[tuple[str, ColumnType]],
        key_column: str,
    ) -> None:
        names = [name for name, _ in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        if key_column not in names:
            raise SchemaError(f"key column {key_column!r} not in schema")
        self.columns = columns
        self.key_column = key_column
        self.key_type = dict(columns)[key_column]
        self.payload_columns = [
            (name, ctype) for name, ctype in columns if name != key_column
        ]
        self._payload = [
            (name, *_compile(ctype)) for name, ctype in self.payload_columns
        ]
        # An integer key image is the payload image without the null flag.
        self._key_width, self._key_bias = _INT_SPECS.get(self.key_type, (None, 0))

    # -- keys ---------------------------------------------------------------

    def encode_key(self, value) -> bytes:
        bias = self._key_bias
        if type(value) is int and -bias <= value < bias:
            return (value + bias).to_bytes(self._key_width, "big")
        return encode_key(value, self.key_type)

    def decode_key(self, data: bytes):
        if len(data) == self._key_width:
            return int.from_bytes(data, "big") - self._key_bias
        return decode_key(data, self.key_type)

    # -- payloads ----------------------------------------------------------------

    def encode_payload(self, row: dict) -> bytes:
        unknown = set(row) - {name for name, _ in self.columns}
        if unknown:
            raise SchemaError(f"unknown column(s): {sorted(unknown)}")
        get = row.get
        return b"".join(
            b"\x00" if (value := get(name)) is None else encode(value)
            for name, encode, _ in self._payload
        )

    def decode_payload(self, data: bytes) -> dict:
        row: dict = {}
        pos = 0
        for name, _, decode in self._payload:
            row[name], pos = \
                decode(data, pos + 1) if data[pos] else (None, pos + 1)
        if pos != len(data):
            raise SchemaError(
                f"payload has {len(data) - pos} trailing byte(s)"
            )
        return row

    # -- whole rows ------------------------------------------------------------------

    def encode_row(self, row: dict) -> tuple[bytes, bytes]:
        """(key image, payload image) for a full row."""
        if self.key_column not in row or row[self.key_column] is None:
            raise SchemaError(f"row is missing key column {self.key_column!r}")
        return self.encode_key(row[self.key_column]), self.encode_payload(row)

    def decode_row(self, key_image: bytes, payload: bytes) -> dict:
        row = self.decode_payload(payload)
        row[self.key_column] = self.decode_key(key_image)
        return row
