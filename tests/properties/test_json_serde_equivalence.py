"""``JsonSerde`` is ``json.dumps`` / ``json.loads``, byte for byte and error
for error.

Where ``_json``'s C accelerators exist, ``JsonSerde`` calls a C encoder it
bound once (``json.encoder.c_make_encoder``, not a documented API, which is
why CI runs this file on the oldest supported Python as well) and its
decoder's C ``scan_once``.  Without them it runs ``JSONEncoder.encode`` and
``json``'s Python scanner.  Both builds are held to the reference here:

* ``serialize(v) == json.dumps(v, sort_keys=True, separators=(",", ":"))``
  in UTF-8 for every value — nested dicts, lists and tuples, non-``str``
  keys, NaN and infinities, non-ASCII and lone surrogates, a top-level
  ``str`` — and a value ``json.dumps`` refuses raises :class:`SerdeError`
  carrying its message;
* ``deserialize(b) == json.loads(b.decode("utf-8"))`` for well-formed,
  whitespace-padded and malformed input alike, errors as
  :class:`SerdeError` with ``json.loads``' message;
* a failed encode leaves nothing behind: the C encoder's circular-reference
  marks are shared between calls, so a container that failed once, then
  was repaired, must encode like a fresh one;
* ``deserialize_many(datas)`` — one scan of the joined texts when they
  provably align — is ``deserialize`` per text, ``None`` kept, or the
  first bad text's :class:`SerdeError`, for columns of well-formed,
  padded and fragmentary texts; the misalignments a bracket count or a
  first/last-byte check would let through are pinned as examples.
"""

import importlib.util
import json
import json.encoder
import json.scanner
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.common import serde
from repro.common.errors import SerdeError


def _serde_module_without_c():
    """A private copy of ``repro.common.serde`` imported as if ``_json``
    had no C accelerators."""
    spec = importlib.util.spec_from_file_location(
        "serde_without_c", serde.__file__
    )
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(json.encoder, "c_make_encoder", None), \
            mock.patch.object(
                json.scanner, "make_scanner", json.scanner.py_make_scanner
            ):
        spec.loader.exec_module(module)
    return module


WITHOUT_C = _serde_module_without_c()
BUILDS = {"c": serde.JsonSerde(), "fallback": WITHOUT_C.JsonSerde()}
build = pytest.mark.parametrize("impl", list(BUILDS.values()), ids=list(BUILDS))


def reference_dumps(value):
    """What ``serialize`` must return, or the :class:`SerdeError` it must
    raise."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    except (TypeError, ValueError) as exc:
        return SerdeError(f"value is not JSON-serializable: {exc}")


def reference_loads(data):
    """What ``deserialize`` must return, or the :class:`SerdeError` it must
    raise."""
    try:
        text = data.decode("utf-8")
        if text.startswith("\ufeff"):
            # json.loads refuses a leading BOM up front, in its own words;
            # JsonSerde has always gone straight to the decoder, which
            # reports the BOM as the unexpected character it is.
            return json.JSONDecoder().decode(text)
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return SerdeError(f"invalid JSON payload: {exc}")


def reference_many(datas):
    """What ``deserialize_many`` must return, or the first bad text's
    :class:`SerdeError`."""
    out = []
    for data in datas:
        value = None if data is None else reference_loads(data)
        if isinstance(value, SerdeError):
            return value
        out.append(value)
    return out


def outcome(fn, arg):
    try:
        return fn(arg)
    except SerdeError as exc:
        return exc


def same(got, want) -> bool:
    """Equal values (NaN equal to itself, 1 unequal to 1.0 and True), or
    errors of the same type and message."""
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return type(got) is type(want) and repr(got) == repr(want)


#: Enough examples to reach the rarer alignments; the deep profile's more.
BATCH_EXAMPLES = max(settings.default.max_examples, 300)


text = st.one_of(
    st.text(max_size=6),
    st.text(alphabet="abZ09 \"\\/\n\t\x00\x7fé☃𝄞", max_size=6),
    st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), max_size=2),
)
floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), floats, text
)
# Keys of one kind sort; a dict mixing kinds does not, and json.dumps's
# TypeError is then the expected outcome.
key_kinds = st.sampled_from(
    [text, st.integers(-9, 9), floats, st.booleans(), st.none()]
)
mixed_keys = st.one_of(text, st.integers(-9, 9), floats, st.booleans(), st.none())


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        key_kinds.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=3)),
        st.dictionaries(mixed_keys, inner, max_size=3),
    )


values = st.recursive(scalars, _containers, max_leaves=10)
serializable = values.filter(
    lambda v: not isinstance(reference_dumps(v), SerdeError)
)
unserializable = st.one_of(
    st.builds(object),
    st.just({1, 2}),
    st.just(b"bytes"),
    st.just({("tuple", "key"): 1}),
    st.just(1j),
)
whitespace = st.text(alphabet=" \t\n\r", max_size=3)
documents = st.one_of(
    serializable.map(
        lambda v: json.dumps(v, sort_keys=True, separators=(",", ":"))
    ),
    serializable.map(json.dumps),  # default separators: spaces inside
)
padded = st.tuples(whitespace, documents, whitespace).map(
    lambda parts: "".join(parts).encode("utf-8")
)
malformed = st.one_of(
    st.text(alphabet='{}[]",:0123456789.eE+-truefalsnNIiy \t\x0c\\u\xa0', max_size=16)
    .map(lambda s: s.encode("utf-8")),
    st.tuples(documents, documents).map(lambda p: " ".join(p).encode("utf-8")),
    st.binary(max_size=8),
)


def test_the_c_build_runs_where_the_accelerators_exist():
    c_encoder, c_scanner = json.encoder.c_make_encoder, json.scanner.c_make_scanner
    if c_encoder is not None:
        assert isinstance(serde._ENCODE_CHUNKS, c_encoder)
    if c_scanner is not None:
        assert isinstance(serde._JSON_SCAN, c_scanner)
    assert not isinstance(WITHOUT_C._ENCODE_CHUNKS, c_encoder or ())
    assert not isinstance(WITHOUT_C._JSON_SCAN, c_scanner or ())


@build
class TestSerialize:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_json_dumps(self, impl, value):
        assert same(outcome(impl.serialize, value), reference_dumps(value))

    @given(text)
    @settings(max_examples=100, deadline=None)
    def test_a_top_level_str(self, impl, value):
        assert impl.serialize(value) == reference_dumps(value)

    @given(st.lists(values, max_size=2), unserializable)
    @settings(max_examples=100, deadline=None)
    def test_an_unserializable_value_is_refused_with_json_dumps_message(
        self, impl, good, bad
    ):
        value = [*good, {"bad": bad}]
        want = reference_dumps(value)
        assert isinstance(want, SerdeError)
        assert same(outcome(impl.serialize, value), want)

    @given(serializable, unserializable)
    @settings(max_examples=100, deadline=None)
    def test_a_repaired_container_encodes_like_a_fresh_one(self, impl, good, bad):
        held = {"inner": [good, {"bad": bad}]}
        with pytest.raises(SerdeError):
            impl.serialize(held)
        held["inner"][1]["bad"] = good
        assert same(outcome(impl.serialize, held), reference_dumps(held))
        assert same(outcome(impl.serialize, good), reference_dumps(good))

    @given(serializable)
    @settings(max_examples=100, deadline=None)
    def test_a_circular_reference_is_refused_and_forgotten(self, impl, good):
        loop = [good]
        loop.append({"back": loop})
        with pytest.raises(SerdeError, match="Circular reference detected"):
            impl.serialize(loop)
        loop.pop()
        assert same(outcome(impl.serialize, loop), reference_dumps(loop))
        assert same(outcome(impl.serialize, good), reference_dumps(good))


@build
class TestDeserialize:
    @given(padded)
    @settings(max_examples=300, deadline=None)
    def test_documents_with_or_without_padding_equal_json_loads(self, impl, data):
        assert same(outcome(impl.deserialize, data), reference_loads(data))

    @given(malformed)
    @settings(max_examples=300, deadline=None)
    def test_malformed_input_fails_with_json_loads_message(self, impl, data):
        assert same(outcome(impl.deserialize, data), reference_loads(data))

    @pytest.mark.parametrize(
        "data",
        [b"", b" ", b"1 2", b"{} x", b"\xff", b"[1,]", b"NaN", b"-Infinity",
         b'"\\ud800"', b"\xef\xbb\xbf{}", b"\x0c1"],
    )
    def test_edges(self, impl, data):
        assert same(outcome(impl.deserialize, data), reference_loads(data))


fragments = st.text(
    alphabet='{}[]",:0123456789.eE-truefalsnNaI \t', max_size=8
).map(lambda s: s.encode("utf-8"))
compact = documents.map(lambda d: d.encode("utf-8"))
columns = st.lists(
    st.one_of(compact, padded, fragments, st.none()), max_size=6
)

#: Columns whose join must not be taken as their values.  The first three
#: are texts that are one value each only in part, so the join scans as an
#: array of the wrong items although a bracket count, or a check of each
#: text's first and last bytes, passes them.  Then a string split over two
#: texts, ``NaN`` tokens, a UTF-8 BOM, an empty text and tombstones.
MISALIGNED = [
    [b"1,[2", b"3]"],
    [b"{},{}", b'{"a":[{}', b"{}]}"],
    [b"[[2", b"3]]", b"4],[5"],
    # Each of these passes three of the four checks and fails the one named.
    [b"1,NaN,2", b"[3", b"4]"],  # NaN tokens: 3, not n - 1
    [b"1", b"2,3,4"],  # items: 5, not 2n - 1 (odd ones: NaN, 3)
    [b"1,2", b"[3", b"4],5"],  # odd items: 2 and [3, NaN, 4], not NaN
    [b"1", b"3],[4"],  # consumed: not the whole text, the scan ends at "3]"
    [b'"a', b'b"'],
    [b"[1,NaN", b"2]"],
    [b"1", b'{"v":"NaN"}'],
    [b"NaN", b"[NaN,1]"],
    [b"\xef\xbb\xbf{}", b"{}"],
    [b"{}", b"\xef\xbb\xbf{}"],
    [b"1", b"", b"2"],
    [b"1", None, b"2"],
    [None, b"{", b"1"],
]


@build
class TestBatchDecodeEqualsPerRecord:
    """``deserialize_many`` joins a column into one scan; whatever the
    texts, it returns what ``json.loads`` per text returns, or raises the
    first bad text's error.  The pinned misalignments are those no cheaper
    check than the four of ``repro.common.serde`` would catch."""

    @given(columns)
    @settings(max_examples=BATCH_EXAMPLES, deadline=None)
    @example(datas=[b"1,[2", b"3]"])
    @example(datas=[b"{},{}", b'{"a":[{}', b"{}]}"])
    @example(datas=[b"[[2", b"3]]", b"4],[5"])
    def test_equals_json_loads_per_text(self, impl, datas):
        assert same(outcome(impl.deserialize_many, datas), reference_many(datas))

    @pytest.mark.parametrize("datas", MISALIGNED, ids=range(len(MISALIGNED)))
    def test_misaligned_columns(self, impl, datas):
        assert same(outcome(impl.deserialize_many, datas), reference_many(datas))

    @given(st.lists(st.one_of(compact, padded), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_an_aligned_column_is_one_scan(self, impl, datas):
        """Well-formed texts with no ``NaN`` token never fall back to
        ``deserialize``."""
        assume(b"NaN" not in b"".join(datas))
        with mock.patch.object(impl, "deserialize", side_effect=AssertionError):
            got = impl.deserialize_many(datas)
        assert same(got, reference_many(datas))

    def test_records_share_field_names(self, impl):
        first, second = impl.deserialize_many([b'{"name":1}', b'{"name":2}'])
        assert next(iter(first)) is next(iter(second))
