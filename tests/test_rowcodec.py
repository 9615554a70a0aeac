"""Tests for row/key codecs."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.rowcodec import (
    ColumnType,
    RowCodec,
    _decode_value,
    _encode_value,
    decode_key,
    encode_key,
)
from repro.errors import SchemaError


class TestKeyEncoding:
    @pytest.mark.parametrize("ctype,lo,hi", [
        (ColumnType.SMALLINT, -(1 << 15), (1 << 15) - 1),
        (ColumnType.INT, -(1 << 31), (1 << 31) - 1),
        (ColumnType.BIGINT, -(1 << 63), (1 << 63) - 1),
    ])
    def test_int_roundtrip_at_extremes(self, ctype, lo, hi):
        for value in (lo, -1, 0, 1, hi):
            assert decode_key(encode_key(value, ctype), ctype) == value

    def test_int_out_of_range(self):
        with pytest.raises(SchemaError):
            encode_key(1 << 15, ColumnType.SMALLINT)

    def test_bool_is_not_an_integer_key(self):
        with pytest.raises(SchemaError):
            encode_key(True, ColumnType.INT)

    def test_text_roundtrip(self):
        assert decode_key(encode_key("héllo", ColumnType.TEXT),
                          ColumnType.TEXT) == "héllo"

    def test_text_with_nul_rejected(self):
        with pytest.raises(SchemaError):
            encode_key("a\x00b", ColumnType.TEXT)

    def test_float_cannot_be_a_key(self):
        with pytest.raises(SchemaError):
            encode_key(1.5, ColumnType.FLOAT)

    @given(st.integers(-(1 << 31), (1 << 31) - 1),
           st.integers(-(1 << 31), (1 << 31) - 1))
    def test_int_encoding_is_order_preserving(self, a, b):
        ea = encode_key(a, ColumnType.INT)
        eb = encode_key(b, ColumnType.INT)
        assert (ea < eb) == (a < b)

    @given(
        st.text(
            alphabet=st.characters(
                blacklist_characters="\x00", blacklist_categories=["Cs"]
            ),
            max_size=20,
        ),
        st.text(
            alphabet=st.characters(
                blacklist_characters="\x00", blacklist_categories=["Cs"]
            ),
            max_size=20,
        ),
    )
    def test_text_order_preserved(self, a, b):
        # UTF-8 byte order equals code-point order (surrogates excluded:
        # they are not encodable).
        ea = encode_key(a, ColumnType.TEXT)
        eb = encode_key(b, ColumnType.TEXT)
        assert (ea < eb) == (a < b)


class TestRowCodec:
    @pytest.fixture
    def codec(self):
        return RowCodec(
            [("id", ColumnType.INT), ("name", ColumnType.TEXT),
             ("score", ColumnType.FLOAT), ("active", ColumnType.BOOL),
             ("big", ColumnType.BIGINT)],
            key_column="id",
        )

    def test_full_roundtrip(self, codec):
        row = {"id": 7, "name": "x", "score": 1.25, "active": True,
               "big": 1 << 40}
        key, payload = codec.encode_row(row)
        assert codec.decode_row(key, payload) == row

    def test_nulls_roundtrip(self, codec):
        row = {"id": 1, "name": None, "score": None, "active": None,
               "big": None}
        key, payload = codec.encode_row(row)
        assert codec.decode_row(key, payload) == row

    def test_missing_columns_become_null(self, codec):
        key, payload = codec.encode_row({"id": 1, "name": "only"})
        decoded = codec.decode_row(key, payload)
        assert decoded["name"] == "only"
        assert decoded["score"] is None

    def test_unknown_column_rejected(self, codec):
        with pytest.raises(SchemaError):
            codec.encode_payload({"nope": 1})

    def test_missing_key_rejected(self, codec):
        with pytest.raises(SchemaError):
            codec.encode_row({"name": "x"})

    def test_null_key_rejected(self, codec):
        with pytest.raises(SchemaError):
            codec.encode_row({"id": None, "name": "x"})

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(SchemaError):
            RowCodec([("a", ColumnType.INT), ("a", ColumnType.TEXT)], "a")

    def test_key_not_in_schema_rejected(self):
        with pytest.raises(SchemaError):
            RowCodec([("a", ColumnType.INT)], "b")

    def test_trailing_bytes_rejected(self, codec):
        _, payload = codec.encode_row({"id": 1})
        with pytest.raises(SchemaError):
            codec.decode_payload(payload + b"\x00")

    @given(
        ident=st.integers(-(1 << 31), (1 << 31) - 1),
        name=st.one_of(st.none(), st.text(max_size=50)),
        score=st.one_of(st.none(), st.floats(allow_nan=False)),
        active=st.one_of(st.none(), st.booleans()),
    )
    def test_roundtrip_property(self, ident, name, score, active):
        codec = RowCodec(
            [("id", ColumnType.INT), ("name", ColumnType.TEXT),
             ("score", ColumnType.FLOAT), ("active", ColumnType.BOOL)],
            key_column="id",
        )
        row = {"id": ident, "name": name, "score": score, "active": active}
        key, payload = codec.encode_row(row)
        assert codec.decode_row(key, payload) == row


_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-(1 << 70), 1 << 70),
    st.floats(allow_nan=False), st.text(max_size=40),
    # past the text fast path (0x3FFF characters), either side of 64 KiB
    st.sampled_from(["a" * 0x3FFF, "a" * 0x4000, "\u20ac" * 0x5555,
                     "\u20ac" * 0x5556, "a" * 0x10000]),
    st.binary(max_size=4),
)


class TestCompiledAgainstReference:
    """``RowCodec`` picks each column's coder once; the module-level
    functions are the reference.  Same bytes, same values, same refusals —
    for any value in any column, well typed or not."""

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            return type(exc), str(exc)

    @given(ctype=st.sampled_from(list(ColumnType)), value=_ANY_VALUE)
    def test_payload_column(self, ctype, value):
        codec = RowCodec([("k", ColumnType.INT), ("c", ctype)], "k")
        want = self._outcome(_encode_value, value, ctype)
        assert self._outcome(codec.encode_payload, {"c": value}) == want
        if isinstance(want, bytes):
            decoded, end = _decode_value(want, 0, ctype)
            assert end == len(want)
            assert codec.decode_payload(want) == {"c": decoded}

    @given(
        ctype=st.sampled_from(
            [ColumnType.SMALLINT, ColumnType.INT, ColumnType.BIGINT,
             ColumnType.TEXT]
        ),
        value=_ANY_VALUE,
    )
    def test_key_column(self, ctype, value):
        codec = RowCodec([("k", ctype), ("v", ColumnType.INT)], "k")
        want = self._outcome(encode_key, value, ctype)
        assert self._outcome(codec.encode_key, value) == want
        if isinstance(want, bytes):
            assert codec.decode_key(want) == decode_key(want, ctype)

    @given(ctype=st.sampled_from(list(ColumnType)), image=st.binary(max_size=12))
    def test_decoding_arbitrary_bytes(self, ctype, image):
        codec = RowCodec([("k", ColumnType.INT), ("c", ctype)], "k")

        def reference(data):
            value, end = _decode_value(data, 0, ctype)
            if end != len(data):
                raise SchemaError(
                    f"payload has {len(data) - end} trailing byte(s)"
                )
            return {"c": value}

        assert self._outcome(codec.decode_payload, image) \
            == self._outcome(reference, image)
        if ctype in (ColumnType.INT, ColumnType.TEXT):
            key_codec = RowCodec([("k", ctype)], "k")
            assert self._outcome(key_codec.decode_key, image) \
                == self._outcome(decode_key, image, ctype)
