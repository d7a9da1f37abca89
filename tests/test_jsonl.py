import pytest

from narrkit.jsonl import InputError, iter_json_objects, want_int, want_number, want_str


def test_yields_objects_with_line_numbers():
    lines = ['{"a": 1}', "", "   ", '{"b": [2, {"c": null}]}\n']
    assert list(iter_json_objects(lines, "f")) == [(1, {"a": 1}), (4, {"b": [2, {"c": None}]})]


@pytest.mark.parametrize(
    "line,reason",
    [
        ("[1]", "record must be a JSON object"),
        ("null", "record must be a JSON object"),
        ("{nope", "invalid JSON: Expecting property name enclosed in double quotes"),
        ('{"x": NaN}', "field 'x' must be a finite number"),
        ('{"x": -Infinity}', "field 'x' must be a finite number"),
        ('{"x": [1, Infinity]}', "non-finite number Infinity is not allowed"),
        ('{"x": NaN, "y": ', "non-finite number NaN is not allowed"),
        ("[" * 100000, "invalid JSON: maximum recursion depth exceeded"),
        ('{"x": 1' + "0" * 5000 + "}", "invalid JSON: Exceeds the limit"),
        # bytes that are not UTF-8, as text read with errors="surrogateescape" holds them
        (b'{"x": "\xff"}'.decode("utf-8", "surrogateescape"), "invalid UTF-8"),
        (b'{"x": "\xed\xb2\x80"}'.decode("utf-8", "surrogateescape"), "invalid UTF-8"),
    ],
    ids=["array", "null", "invalid", "nan", "minus-infinity", "nested-infinity",
         "nan-then-invalid", "deep", "long-integer", "raw-byte", "encoded-surrogate"],
)
def test_rejects_with_source_and_line(line, reason):
    with pytest.raises(InputError) as err:
        list(iter_json_objects(['{"ok": 1}', line], "in.jsonl"))
    assert (err.value.source, err.value.line) == ("in.jsonl", 2)
    assert str(err.value).startswith(f"line 2: {reason}")


def test_escaped_surrogate_is_valid_json():
    # only a raw byte is rejected; the JSON escape \udcff is six ASCII characters
    assert list(iter_json_objects(['{"x": "\\udcff"}'], "in.jsonl")) == [(1, {"x": "\udcff"})]


@pytest.mark.parametrize(
    "want,value",
    [
        (want_str, ""), (want_str, 1), (want_str, None),
        (want_int, True), (want_int, 1.0), (want_int, "1"),
        (want_number, False), (want_number, "1.5"), (want_number, 10**400),
    ],
)
def test_field_checks_do_not_coerce(want, value):
    with pytest.raises(InputError, match="^line 3: field 'f' must be"):
        want({"f": value}, "f", 3, "in.jsonl")


def test_field_checks_accept_exact_types():
    rec = {"s": "x", "i": 7, "n": 2}
    assert (want_str(rec, "s", 1, ""), want_int(rec, "i", 1, ""), want_number(rec, "n", 1, "")) == (
        "x", 7, 2.0
    )
