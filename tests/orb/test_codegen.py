"""Unit tests for the exec-compiled codec tier (repro.orb.codegen).

Property coverage (equivalence with the interpreter) lives in
``tests/property/test_trimodal_properties.py``; this file pins the
plumbing: tier selection in ``get_plan`` (and the interpreter tier
that serves the shapes codegen declines), the generation caches and
stats, struct value polymorphism, union arms, and the batch-format LRU
in ``compiled.make_batcher``.
"""

import pytest

from repro.orb import codegen
from repro.orb.cdr import (
    Any,
    CDRDecoder,
    CDREncoder,
    _MAX_NESTING,
    decode_value_interp,
    encode_typecode,
    encode_value_interp,
)
from repro.orb.compiled import get_plan, make_batcher
from repro.orb.exceptions import BAD_PARAM
from repro.orb.ior import IOR
from repro.orb.typecodes import (
    enum_tc,
    sequence_tc,
    struct_tc,
    tc_any,
    tc_double,
    tc_long,
    tc_objref,
    tc_string,
    union_tc,
)

SUPPORTED_TC = struct_tc("CgSample", [
    ("id", tc_long),
    ("name", tc_string),
    ("path", sequence_tc(struct_tc("CgPoint", [
        ("x", tc_double), ("y", tc_double)]))),
])
SUPPORTED_VALUE = {"id": 41, "name": "n1",
                   "path": [{"x": 1.5, "y": -2.5}]}


@pytest.fixture(autouse=True)
def _fresh_codegen():
    """Each test sees empty codegen caches and zeroed stats."""
    codegen.clear_cache()
    codegen.reset_stats()


# -- tier selection -----------------------------------------------------------

def test_get_plan_selects_codegen_tier_for_supported_typecode():
    plan = get_plan(SUPPORTED_TC)
    assert plan.tier == "codegen"
    assert plan.encode.__codegen_source__
    assert plan.decode.__codegen_source__


REF = IOR("IDL:test/Ref:1.0", "h0", "root", "obj-1")
POINT_TC = struct_tc("CgAnyPoint", [("x", tc_double), ("y", tc_double)])


def _nested_any(levels):
    """An Any wrapping *levels* nested Anys around a long."""
    value = Any(tc_long, 7)
    for _ in range(levels):
        value = Any(tc_any, value)
    return value


#: Its innermost long sits one level past the interpreter's limit.
TOO_DEEP = _nested_any(_MAX_NESTING)


def _too_deep_wire():
    """The bytes TOO_DEEP would encode to, had it no nesting limit."""
    enc = CDREncoder()
    for _ in range(_MAX_NESTING):
        encode_typecode(enc, tc_any)
    encode_typecode(enc, tc_long)
    enc.write_long(7)
    return enc.getvalue()


def _bad_param(fn, arg):
    with pytest.raises(BAD_PARAM) as info:
        fn(arg)
    return str(info.value)


@pytest.mark.parametrize("tc,value", [
    pytest.param(tc_any, Any(tc_long, -5), id="any"),
    pytest.param(tc_any, Any(POINT_TC, {"x": 1.5, "y": -2.5}),
                 id="any_struct"),
    pytest.param(tc_any, Any(sequence_tc(tc_string), ["a", "bc"]),
                 id="any_seq"),
    pytest.param(tc_objref, REF, id="objref"),
    pytest.param(struct_tc("HasAny", [("a", tc_long), ("b", tc_any)]),
                 {"a": 3, "b": Any(tc_string, "x")}, id="struct_any"),
    pytest.param(struct_tc("HasRef", [("r", tc_objref)]), {"r": REF},
                 id="struct_objref"),
    pytest.param(sequence_tc(tc_any), [Any(tc_long, 1), Any(tc_double, 2.0)],
                 id="seq_any"),
    pytest.param(tc_any, _nested_any(_MAX_NESTING - 1), id="any_deepest"),
    pytest.param(tc_any, TOO_DEEP, id="any_too_deep"),
])
def test_get_plan_keeps_value_dependent_shapes_on_plan_tier(tc, value):
    # any/objref wire shape depends on the runtime value, so codegen
    # declines these and the plan is served by the interpreter — by
    # design, not by accident.  The served plan must match the
    # interpreter byte for byte at every residue, including its
    # nesting limit on the value inside an Any.
    assert codegen.generate(tc) is None
    plan = get_plan(tc)
    assert plan.tier == "interp"
    if value is TOO_DEEP:
        ref = _bad_param(lambda e: encode_value_interp(e, tc, value),
                         CDREncoder())
        assert "nesting too deep" in ref
        assert _bad_param(lambda e: plan.encode(e, value), CDREncoder()) == ref
        wire = _too_deep_wire()
        ref = _bad_param(lambda d: decode_value_interp(d, tc),
                         CDRDecoder(wire))
        assert "nesting too deep" in ref
        assert _bad_param(plan.decode, CDRDecoder(wire)) == ref
        return
    for prefix in range(8):
        ref, got = CDREncoder(), CDREncoder()
        for i in range(prefix):
            ref.write_octet(i)
            got.write_octet(i)
        encode_value_interp(ref, tc, value)
        plan.encode(got, value)
        wire = ref.getvalue()
        assert got.getvalue() == wire
        d_ref, d_got = CDRDecoder(wire), CDRDecoder(wire)
        for _ in range(prefix):
            d_ref.read_octet()
            d_got.read_octet()
        expected = decode_value_interp(d_ref, tc)
        assert plan.decode(d_got) == expected == value
        assert d_got._pos == d_ref._pos == len(wire)


# -- caches and stats ---------------------------------------------------------

def test_generate_counts_and_caches():
    assert codegen.cache_size() == 0
    first = codegen.generate(SUPPORTED_TC)
    assert first is not None
    assert codegen.stats["generated"] == 1
    assert codegen.stats["cache_misses"] == 1

    again = codegen.generate(SUPPORTED_TC)
    assert again is first
    assert codegen.stats["cache_hits"] == 1
    assert codegen.stats["generated"] == 1  # compiled once, served twice


def test_unsupported_typecode_caches_its_decline():
    assert codegen.generate(tc_any) is None
    assert codegen.stats["unsupported"] == 1
    # The negative result is cached too: declining again is a hit, not
    # a second supportability walk.
    assert codegen.generate(tc_any) is None
    assert codegen.stats["unsupported"] == 1
    assert codegen.stats["cache_hits"] == 1


def test_stats_snapshot_reports_runtime_call_counts():
    enc_fn, dec_fn = codegen.generate(SUPPORTED_TC)
    enc = CDREncoder()
    enc_fn(enc, SUPPORTED_VALUE)
    dec_fn(CDRDecoder(enc.getvalue()))
    snap = codegen.stats_snapshot()
    assert snap["encode_calls"] >= 1
    assert snap["decode_calls"] >= 1
    assert snap["generated"] == 1


# -- value handling -----------------------------------------------------------

class _PointObj:
    def __init__(self, x, y):
        self.x = x
        self.y = y


class _SampleObj:
    def __init__(self):
        self.id = 41
        self.name = "n1"
        self.path = [_PointObj(1.5, -2.5)]


def test_struct_encode_accepts_attribute_objects():
    # Servant results are often plain objects, not dicts; the generated
    # encoder must read members either way and emit identical bytes.
    enc_fn, dec_fn = codegen.generate(SUPPORTED_TC)
    by_dict, by_attr = CDREncoder(), CDREncoder()
    enc_fn(by_dict, SUPPORTED_VALUE)
    enc_fn(by_attr, _SampleObj())
    assert by_dict.getvalue() == by_attr.getvalue()
    assert dec_fn(CDRDecoder(by_attr.getvalue())) == SUPPORTED_VALUE


UNION_TC = union_tc("CgEither", tc_long, [
    (1, "num", tc_long),
    (2, "text", tc_string),
    (None, "other", enum_tc("CgColor", ["red", "green", "blue"])),
], default_index=2)

UNION_NO_DEFAULT_TC = union_tc("CgStrict", tc_long, [
    (1, "num", tc_long),
    (2, "text", tc_string),
])


@pytest.mark.parametrize("value", [(1, -7), (2, "hi"), (99, "green")],
                         ids=["arm1", "arm2", "default_arm"])
def test_union_roundtrip_matches_interpreter(value):
    enc_fn, dec_fn = codegen.generate(UNION_TC)
    ref = CDREncoder()
    encode_value_interp(ref, UNION_TC, value)
    enc = CDREncoder()
    enc_fn(enc, value)
    assert enc.getvalue() == ref.getvalue()
    assert dec_fn(CDRDecoder(enc.getvalue())) == value


def test_union_without_default_rejects_unknown_discriminator():
    enc_fn, _dec_fn = codegen.generate(UNION_NO_DEFAULT_TC)
    with pytest.raises(BAD_PARAM):
        enc_fn(CDREncoder(), (42, "nope"))


def test_union_value_must_be_pair():
    enc_fn, _dec_fn = codegen.generate(UNION_TC)
    with pytest.raises(BAD_PARAM):
        enc_fn(CDREncoder(), "not-a-pair")


# -- batch-format LRU ---------------------------------------------------------

def test_make_batcher_lru_keeps_hot_entry_and_bounds_cache():
    # One fixed leaf: a long (4 bytes, 4-aligned).
    batch = make_batcher([("i", 4, 4)])
    hot = batch(0, 1)
    from repro.orb.compiled import _BATCH_CACHE_MAX

    # Insert far more shapes than the cache holds, touching the hot
    # entry periodically; the LRU must keep it while evicting the rest.
    for n in range(2, 3 * _BATCH_CACHE_MAX):
        batch(0, n)
        if n % 16 == 0:
            assert batch(0, 1) is hot
    assert len(batch.cache) <= _BATCH_CACHE_MAX
    assert batch(0, 1) is hot
    # Cold early shapes were evicted (they would only be present if the
    # cache grew without bound).
    assert (0, 2) not in batch.cache
