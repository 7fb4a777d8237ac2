"""Codec-tier equivalence: interpreter vs generated source.

The codec stack has two tiers — the reference TypeCode interpreter and
the exec-compiled generated source (repro.orb.codegen).  Whatever tier
serves a value, the bytes on the wire and the values decoded back must
be identical, at every alignment residue.  These properties pin that
agreement on randomly generated TypeCodes; when codegen declines a
TypeCode the test degrades to the interpreter alone (that decline is
itself asserted to be honest: `generate` returns None only for kinds
the design keeps on the interpreter).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.orb import codegen
from repro.orb.cdr import (
    CDRDecoder,
    CDREncoder,
    decode_value_interp,
    encode_value_interp,
)
from repro.orb.typecodes import (
    sequence_tc,
    struct_tc,
    tc_boolean,
    tc_double,
    tc_long,
    tc_string,
)

from test_cdr_properties import _typed_values


def _encoders_for(tc):
    """(label, encode(enc, value), decode(dec)) for every available tier."""
    tiers = [
        ("interp", lambda enc, v: encode_value_interp(enc, tc, v),
         lambda dec: decode_value_interp(dec, tc)),
    ]
    pair = codegen.generate(tc)
    if pair is not None:
        tiers.append(("codegen", pair[0], pair[1]))
    return tiers


@given(_typed_values(), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_trimodal_encode_bytes_identical(pair, prefix):
    """All tiers emit byte-identical encodings at every (mod 8) residue."""
    tc, value = pair
    outputs = {}
    for label, encode, _decode in _encoders_for(tc):
        enc = CDREncoder()
        for i in range(prefix):
            enc.write_octet(i)
        encode(enc, value)
        outputs[label] = enc.getvalue()
    reference = outputs.pop("interp")
    for label, data in outputs.items():
        assert data == reference, (
            f"{label} encoding differs from interpreter for {tc!r}")


@given(_typed_values(), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_trimodal_decode_values_and_positions_identical(pair, prefix):
    """All tiers decode the same value AND stop at the same offset."""
    tc, value = pair
    enc = CDREncoder()
    for i in range(prefix):
        enc.write_octet(i)
    encode_value_interp(enc, tc, value)
    wire = enc.getvalue()
    results = []
    for label, _encode, decode in _encoders_for(tc):
        dec = CDRDecoder(wire)
        for _ in range(prefix):
            dec.read_octet()
        results.append((label, decode(dec), dec._pos))
    _label0, value0, pos0 = results[0]
    assert value0 == value
    for label, got, pos in results[1:]:
        assert got == value0, f"{label} decoded a different value"
        assert pos == pos0, f"{label} stopped at {pos}, expected {pos0}"


@given(_typed_values(), _typed_values())
@settings(max_examples=100, deadline=None)
def test_trimodal_concatenated_pairs_decode_in_order(pair_a, pair_b):
    """Back-to-back values keep all tiers in step: each tier decodes
    value A then value B from one buffer, landing on the same offsets.
    This is the regression shape for encode-ordering bugs (a pending
    fixed-leaf run flushed after a later variable field)."""
    (tc_a, val_a), (tc_b, val_b) = pair_a, pair_b
    enc = CDREncoder()
    encode_value_interp(enc, tc_a, val_a)
    encode_value_interp(enc, tc_b, val_b)
    wire = enc.getvalue()
    for label, _encode, decode_a in _encoders_for(tc_a):
        for label_b, _encode_b, decode_b in _encoders_for(tc_b):
            dec = CDRDecoder(wire)
            assert decode_a(dec) == val_a, f"{label} broke on value A"
            assert decode_b(dec) == val_b, (
                f"{label}+{label_b} broke on value B")


@given(st.integers(0, 7), st.lists(st.text(max_size=12), max_size=4))
@settings(max_examples=150, deadline=None)
def test_trimodal_misaligned_nested_struct(prefix, names):
    """A struct embedding strings and doubles, decoded at every start
    residue — the shape where fused-run alignment bugs live."""
    tc = struct_tc("Deep", [
        ("flag", tc_boolean),
        ("names", sequence_tc(tc_string)),
        ("points", sequence_tc(struct_tc("P", [
            ("x", tc_double), ("y", tc_double)]))),
        ("id", tc_long),
    ])
    value = {"flag": True, "names": names,
             "points": [{"x": 0.5, "y": -1.25}], "id": 99}
    enc_ref = CDREncoder()
    for i in range(prefix):
        enc_ref.write_octet(i)
    encode_value_interp(enc_ref, tc, value)
    wire = enc_ref.getvalue()
    for label, encode, decode in _encoders_for(tc):
        enc = CDREncoder()
        for i in range(prefix):
            enc.write_octet(i)
        encode(enc, value)
        assert enc.getvalue() == wire, f"{label} bytes differ at +{prefix}"
        dec = CDRDecoder(wire)
        for _ in range(prefix):
            dec.read_octet()
        assert decode(dec) == value, f"{label} value differs at +{prefix}"


def test_codegen_declines_are_the_designed_kinds():
    """`generate` returning None must mean any/objref/etc, not a bug on
    an everyday aggregate."""
    from repro.orb.typecodes import tc_any, tc_objref
    assert codegen.generate(tc_any) is None
    assert codegen.generate(tc_objref) is None
    everyday = struct_tc("Everyday", [
        ("a", tc_long), ("b", tc_string),
        ("c", sequence_tc(tc_double)),
    ])
    assert codegen.generate(everyday) is not None
