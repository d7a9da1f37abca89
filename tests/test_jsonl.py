import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narrkit import jsonl
from narrkit.jsonl import InputError, decode_object, records, stream_name, want_int, want_number, want_str


def read_all(lines, source=None):
    """(line, record) for each record of ``lines``, read through ``records``."""
    with records(lines, source) as recs:
        return [(recs.line, rec) for rec in recs]


def test_yields_objects_with_line_numbers():
    lines = ['{"a": 1}', "", "   ", '{"b": [2, {"c": null}]}\n']
    assert read_all(lines, "f") == [(1, {"a": 1}), (4, {"b": [2, {"c": None}]})]


def test_stream_name_is_a_string(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text("")
    with open(path) as fh, open(fh.fileno(), closefd=False) as by_fd:
        assert (stream_name(fh), stream_name(by_fd), stream_name([]), stream_name([], "<output>")) == (
            str(path), "<input>", "<input>", "<output>")


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
        read_all(['{"ok": 1}', line], "in.jsonl")
    assert (err.value.source, err.value.line) == ("in.jsonl", 2)
    assert str(err.value).startswith(f"line 2: {reason}")


def test_escaped_surrogate_is_valid_json():
    # only a raw byte is rejected; the JSON escape \udcff is six ASCII characters
    assert read_all(['{"x": "\\udcff"}'], "in.jsonl") == [(1, {"x": "\udcff"})]


@pytest.mark.parametrize(
    "want,value",
    [
        (want_str, ""), (want_str, 1), (want_str, None),
        (want_int, True), (want_int, 1.0), (want_int, "1"),
        (want_number, False), (want_number, "1.5"), (want_number, 10**400),
    ],
)
def test_field_checks_do_not_coerce(want, value):
    with pytest.raises(ValueError, match="^field 'f' must be") as err:
        want({"f": value}, "f")
    assert type(err.value) is ValueError  # the reason alone; records adds where it is


def test_field_checks_accept_exact_types():
    rec = {"s": "x", "i": 7, "n": 2}
    assert (want_str(rec, "s"), want_int(rec, "i"), want_number(rec, "n")) == ("x", 7, 2.0)


# The decode-only path and the integer and number checks as they were before
# each took an exact-type fast path; the fast paths must not change a result
# or a message.
def decode_only(text):
    if not text.isascii() and jsonl._RAW_BYTE.search(text):
        raise ValueError("invalid UTF-8")
    try:
        rec = jsonl._DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from exc
    except jsonl._NonFinite as exc:
        raise ValueError(jsonl._non_finite_reason(text, str(exc))) from exc
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise ValueError("record must be a JSON object")
    return rec


def checked_int(rec, key):
    value = rec.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field '{key}' must be an integer")
    return value


def checked_number(rec, key):
    value = rec.get(key)
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"field '{key}' must be a finite number")


def outcome(fn, *args):
    try:
        result = fn(*args)
    except ValueError as exc:
        return "raised", type(exc), str(exc)
    return "returned", type(result), result


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# NaN and Infinity are written as such, and each document may be cut short or
# carry extra text around it, so lines reach every branch of both paths.
documents = json_values.map(json.dumps)
affixes = st.sampled_from(["", " ", "\t", "\n", "x", "}", "]", ",", "{}", '"', "\udcff", "\u2028"])
texts = st.one_of(
    documents,
    st.tuples(affixes, documents, affixes).map("".join),
    st.tuples(documents, st.integers(0, 40)).map(lambda d: d[0][: d[1]]),
    st.text(max_size=30),
    st.sampled_from(["[" * 3000, '{"x": 1' + "0" * 5000 + "}", '{"a": NaN, "b": Infinity}']),
)


@settings(max_examples=400, deadline=None)
@given(texts)
def test_decode_fast_path_matches_decode_only(text):
    assert outcome(decode_object, text) == outcome(decode_only, text)


# Objects whose keys often repeat, at any depth, around strings that hold '":'.
def json_object(values):
    fields = st.tuples(st.sampled_from(["a", "b", 'c":']), st.sampled_from(["", " ", "\n\t"]), values)
    return st.lists(fields, max_size=4).map(
        lambda fields: "{" + ", ".join(f"{json.dumps(key)}{space}: {value}" for key, space, value in fields) + "}")


objects = json_object(st.recursive(st.sampled_from(["1", '"x"', '"y\\":"', "[]"]), json_object, max_leaves=6))


@settings(max_examples=400, deadline=None)
@given(objects)
def test_repeated_key_screen_is_exact(text):
    # decode_object decodes a second time, rejecting repeated keys, only the lines
    # that its screen cannot clear; it must reject every line that repeats a key
    try:
        jsonl._STRICT_DECODER.decode(text)
    except jsonl._DuplicateKey as exc:
        expected = ("raised", ValueError, f"duplicate key '{exc}'")
    else:
        expected = outcome(decode_only, text)
    assert outcome(decode_object, text) == expected


class Real(float):
    pass


class Text(str):
    pass


field_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.integers(min_value=2**1024), st.integers(max_value=-(2**1024)),  # beyond the float range
    st.floats().map(Real), st.text(max_size=3), st.text(max_size=3).map(Text),
    st.sampled_from(["", math.nan, math.inf, -math.inf, Real("nan"), Real("inf"), 10**400]),
    st.lists(st.integers(), max_size=2),
)


@pytest.mark.parametrize(
    "fast,checked",
    [(want_int, checked_int), (want_number, checked_number)],
    ids=["int", "number"],
)
@settings(max_examples=300, deadline=None)
@given(value=field_values)
def test_field_fast_paths_match_checks(fast, checked, value):
    rec = {"f": value}
    assert outcome(fast, rec, "f") == outcome(checked, rec, "f")
    assert outcome(fast, {}, "f") == outcome(checked, {}, "f")


def test_records_name_the_line_of_a_decode_or_field_error():
    with pytest.raises(InputError) as err:
        with records(['{"n": 1}', "", '{"n": "2"}']) as recs:
            for rec in recs:
                want_int(rec, "n")
    assert (str(err.value), err.value.line, err.value.source) == (
        "line 3: field 'n' must be an integer", 3, "<input>")
    with pytest.raises(InputError) as err:
        read_all(['{"n": 1}', "{"], "in.jsonl")
    assert (err.value.line, err.value.source) == (2, "in.jsonl")
    assert isinstance(err.value.__cause__, ValueError)


def test_records_source_is_the_stream_name(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"a": 1}\n[]\n')
    with open(path) as fh, pytest.raises(InputError) as err:
        read_all(fh)
    assert (str(err.value), err.value.line, err.value.source) == (
        "line 2: record must be a JSON object", 2, str(path))


def test_records_name_no_line_once_the_lines_run_out():
    with pytest.raises(InputError) as err:
        with records(['{"a": 1}', '{"a": 2}'], "in.jsonl") as recs:
            total = sum(rec["a"] for rec in recs)
            raise ValueError(f"total {total}")
    assert (str(err.value), err.value.line, err.value.source) == ("total 3", None, "in.jsonl")


def test_records_pass_an_input_error_through():
    raised = InputError("elsewhere", 9, "other.jsonl")
    with pytest.raises(InputError) as err:
        with records(['{"a": 1}'], "in.jsonl") as recs:
            for _ in recs:
                raise raised
    assert err.value is raised


def test_records_leave_other_errors_alone():
    with pytest.raises(KeyError):
        with records(['{"a": 1}'], "in.jsonl") as recs:
            for rec in recs:
                rec["b"]


def test_consumer_of_a_generator_reader_names_no_line():
    # A reader that yields from inside its block, as parse_match_records does: an error
    # its consumer raises is the consumer's, and the block sees only the generator close.
    def reader(lines):
        with records(lines, "in.jsonl") as recs:
            for rec in recs:
                yield want_int(rec, "n")

    with pytest.raises(ValueError) as err:
        for n in reader(['{"n": 1}', '{"n": 2}']):
            if n == 2:
                raise ValueError("unknown n")
    assert type(err.value) is ValueError and str(err.value) == "unknown n"
    with pytest.raises(InputError, match="^line 2: field 'n' must be an integer"):
        list(reader(['{"n": 1}', '{"n": null}']))
