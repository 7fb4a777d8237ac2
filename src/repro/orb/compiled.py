"""The codec plan cache and the fixed-size leaf model behind it.

:func:`get_plan` hands every marshalling call site one encode/decode
pair per TypeCode: the generated source of :mod:`repro.orb.codegen`
(``tier == "codegen"``), or, for every TypeCode codegen declines —
``Any``, object references, over-deep types and anything built from
them — the reference interpreter of :mod:`repro.orb.cdr`
(``tier == "interp"``).

Plans are cached per TypeCode identity (an ``id()`` front cache) and
per structural equality, so repeated invocations never re-traverse the
TypeCode graph; :data:`stats` counts hits/misses.  :func:`op_codec`
memoizes one operation's request/reply plans on its OperationDef.

The fixed-size leaf model (flatten/unflatten of wholly fixed-size
types into one :class:`struct.Struct` run, one format per start
residue mod 8) is what the generated source binds for its fused runs
and batched sequences.

Both tiers emit identical bytes, decode identical values and raise
matching ``BAD_PARAM`` on bad input; the property suites in
``tests/property/`` enforce it.
"""

from __future__ import annotations

import struct as _struct
import weakref
from collections import OrderedDict
from typing import Callable, Optional

from repro.orb import cdr as _cdr
from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.exceptions import BAD_PARAM
from repro.orb.typecodes import TCKind, TypeCode

_MAX_NESTING = _cdr._MAX_NESTING

#: Fused runs and absorbed structs/arrays are capped at this many leaf
#: primitives; larger shapes use the batched-sequence path instead.
_FUSE_LIMIT = 64

#: Plan-cache observability: standard invocations must show hits > 0.
stats = {"hits": 0, "misses": 0}


def reset_stats() -> None:
    stats["hits"] = stats["misses"] = 0


class CodecPlan:
    """The encode/decode pair serving one TypeCode, and its ``tier``."""

    __slots__ = ("tc", "encode", "decode", "tier")

    def __init__(self, tc: TypeCode,
                 encode: Callable[[CDREncoder, object], None],
                 decode: Callable[[CDRDecoder], object],
                 tier: str) -> None:
        self.tc = tc
        self.encode = encode
        self.decode = decode
        self.tier = tier

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CodecPlan {self.tc!r} tier={self.tier}>"


# -- fixed-size leaf model ----------------------------------------------------
# A "leaf" is one struct-module field: (fmt_char, size, align).  Flatten
# appends pack-ready leaf values for one conforming value; unflatten
# rebuilds the value from an unpacked tuple starting at index i.

_PRIM_LEAF = {
    TCKind.SHORT: ("h", 2),
    TCKind.USHORT: ("H", 2),
    TCKind.LONG: ("i", 4),
    TCKind.ULONG: ("I", 4),
    TCKind.LONGLONG: ("q", 8),
    TCKind.ULONGLONG: ("Q", 8),
    TCKind.FLOAT: ("f", 4),
    TCKind.DOUBLE: ("d", 8),
    # '?' packs by truth value and unpacks to bool, matching the
    # interpreter's ``1 if v else 0`` / ``bool(octet)``.
    TCKind.BOOLEAN: ("?", 1),
    TCKind.OCTET: ("B", 1),
}


def _char_enc(v) -> int:
    if not isinstance(v, str) or len(v) != 1:
        raise BAD_PARAM(f"char must be a 1-character str, got {v!r}")
    return ord(v) & 0xFF


def _enum_convs(tc: TypeCode):
    labels = tc.labels
    name = tc.name
    n = len(labels)

    def conv_enc(value) -> int:
        try:
            index = labels.index(value) if isinstance(value, str) else int(value)
        except ValueError:
            raise BAD_PARAM(
                f"{value!r} is not a label of enum {name}"
            ) from None
        if not 0 <= index < n:
            raise BAD_PARAM(f"enum index {index} out of range for {name}")
        return index

    def conv_dec(index: int) -> str:
        if index >= n:
            raise BAD_PARAM(f"enum index {index} out of range for {name}")
        return labels[index]

    return conv_enc, conv_dec


def _leaf_fns(conv_enc, conv_dec):
    if conv_enc is None:
        def flatten(v, out) -> None:
            out.append(v)
    else:
        def flatten(v, out) -> None:
            out.append(conv_enc(v))
    if conv_dec is None:
        def unflatten(vals, i):
            return vals[i], i + 1
    else:
        def unflatten(vals, i):
            return conv_dec(vals[i]), i + 1
    return flatten, unflatten


def _fixed_info(tc: TypeCode, depth: int):
    """Return (leaves, flatten, unflatten) if *tc* is wholly fixed-size.

    Returns None for variable-size types, for types past the nesting
    limit (so they stay on the depth-enforcing interpreter), and for
    shapes bigger than :data:`_FUSE_LIMIT` leaves.
    """
    if depth > _MAX_NESTING:
        return None
    kind = tc.kind
    if kind is TCKind.ALIAS:
        assert tc.content_type is not None
        return _fixed_info(tc.content_type, depth + 1)
    if kind in (TCKind.NULL, TCKind.VOID):
        def flatten(v, out) -> None:
            if v is not None:
                raise BAD_PARAM(f"void carries no value, got {v!r}")

        def unflatten(vals, i):
            return None, i
        return (), flatten, unflatten
    leaf = _PRIM_LEAF.get(kind)
    if leaf is not None:
        ch, size = leaf
        flatten, unflatten = _leaf_fns(None, None)
        return ((ch, size, size),), flatten, unflatten
    if kind is TCKind.CHAR:
        flatten, unflatten = _leaf_fns(_char_enc, chr)
        return (("B", 1, 1),), flatten, unflatten
    if kind is TCKind.ENUM:
        conv_enc, conv_dec = _enum_convs(tc)
        flatten, unflatten = _leaf_fns(conv_enc, conv_dec)
        return (("I", 4, 4),), flatten, unflatten
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        parts = []
        for _name, mtc in tc.members:
            sub = _fixed_info(mtc, depth + 1)
            if sub is None:
                return None
            parts.append(sub)
        leaves = tuple(lf for sub in parts for lf in sub[0])
        if len(leaves) > _FUSE_LIMIT:
            return None
        names = tuple(n for n, _ in tc.members)
        nameset = frozenset(names)
        flattens = tuple(sub[1] for sub in parts)
        unflattens = tuple(sub[2] for sub in parts)
        tname = tc.name

        def flatten(v, out) -> None:
            if isinstance(v, dict):
                for name, fl in zip(names, flattens):
                    try:
                        member = v[name]
                    except KeyError:
                        raise BAD_PARAM(
                            f"struct {tname} missing member {name!r}"
                        ) from None
                    fl(member, out)
                extra = v.keys() - nameset
                if extra:
                    raise BAD_PARAM(
                        f"struct {tname} has unknown members {sorted(extra)}"
                    )
            else:
                for name, fl in zip(names, flattens):
                    try:
                        member = getattr(v, name)
                    except AttributeError:
                        raise BAD_PARAM(
                            f"struct {tname} value lacks member {name!r}"
                        ) from None
                    fl(member, out)

        def unflatten(vals, i):
            d = {}
            for name, uf in zip(names, unflattens):
                d[name], i = uf(vals, i)
            return d, i
        return leaves, flatten, unflatten
    if kind is TCKind.ARRAY:
        assert tc.content_type is not None
        sub = _fixed_info(tc.content_type, depth + 1)
        if sub is None:
            return None
        sub_leaves, sub_fl, sub_uf = sub
        length = tc.length
        if len(sub_leaves) * length > _FUSE_LIMIT or not sub_leaves:
            return None
        leaves = sub_leaves * length

        def flatten(v, out) -> None:
            items = list(v)
            if len(items) != length:
                raise BAD_PARAM(
                    f"array of length {length} got {len(items)} items"
                )
            for item in items:
                sub_fl(item, out)

        def unflatten(vals, i):
            res = []
            for _ in range(length):
                obj, i = sub_uf(vals, i)
                res.append(obj)
            return res, i
        return leaves, flatten, unflatten
    return None


# -- fused-run format construction --------------------------------------------

def _variant_fmts(leaves):
    """Per start-residue (mod 8) format bodies for one leaf run.

    Returns a list of 8 ``(fmt_body, consumed_bytes)`` pairs; alignment
    gaps become ``x`` pad fields so one pack reproduces the
    interpreter's align-then-write byte stream exactly.
    """
    variants = []
    for r in range(8):
        pos = r
        parts = []
        for ch, size, align in leaves:
            pad = (-pos) % align
            if pad:
                parts.append("x" if pad == 1 else "%dx" % pad)
            parts.append(ch)
            pos += pad + size
        variants.append(("".join(parts), pos - r))
    return variants


def _variant_structs(leaves):
    """Like :func:`_variant_fmts` but with compiled Struct objects."""
    cache: dict[str, _struct.Struct] = {}
    out = []
    for fmt, _consumed in _variant_fmts(leaves):
        st = cache.get(fmt)
        if st is None:
            st = cache[fmt] = _struct.Struct(">" + fmt)
        out.append(st)
    return out


#: Batch-format cache capacity per batcher (LRU-evicted, never cleared
#: wholesale, so hot (residue, count) formats survive diverse workloads).
_BATCH_CACHE_MAX = 128


def make_batcher(leaves, lead_ulong: bool = False):
    """Return ``batch_struct(r0, n) -> Struct`` for a fixed leaf run.

    The returned callable builds (and LRU-caches, keyed by start residue
    and element count) one big-endian Struct packing *n* repetitions of
    the leaf run starting at stream residue ``r0`` (mod 8), with
    alignment gaps folded in as ``x`` pad fields.  With ``lead_ulong``
    the format is prefixed by a 4-aligned ulong (the sequence count), so
    count and elements marshal in a single ``pack``.

    The cache is exposed as ``batch_struct.cache`` for tests.
    """
    elem_variants = _variant_fmts(leaves)
    consumed = [c for _f, c in elem_variants]
    cache: OrderedDict[tuple[int, int], _struct.Struct] = OrderedDict()
    last_key: Optional[tuple[int, int]] = None
    last_st: Optional[_struct.Struct] = None

    def batch_struct(r0: int, n: int) -> _struct.Struct:
        nonlocal last_key, last_st
        key = (r0, n)
        # Single-entry memo: steady-state callers hit one (residue,
        # count) shape, skipping the LRU bookkeeping entirely.
        if key == last_key:
            return last_st
        st = cache.get(key)
        if st is not None:
            cache.move_to_end(key)
            last_key, last_st = key, st
            return st
        # Element layout depends on the start residue; walk the residue
        # chain, collapsing as soon as it reaches a fixed point.
        parts = []
        r = r0
        if lead_ulong:
            pad = (-r0) & 3
            if pad:
                parts.append("x" if pad == 1 else "%dx" % pad)
            parts.append("I")
            r = (r0 + pad + 4) & 7
        remaining = n
        while remaining:
            fmt = elem_variants[r][0]
            r2 = (r + consumed[r]) & 7
            if r2 == r:
                parts.append(fmt * remaining)
                break
            parts.append(fmt)
            remaining -= 1
            r = r2
        st = _struct.Struct(">" + "".join(parts))
        if len(cache) >= _BATCH_CACHE_MAX:
            cache.popitem(last=False)
        cache[key] = st
        last_key, last_st = key, st
        return st

    batch_struct.cache = cache
    return batch_struct


# -- plan cache ---------------------------------------------------------------

def _build(tc: TypeCode) -> CodecPlan:
    # Deferred import: codegen depends on this module's leaf model.
    from repro.orb import codegen
    pair = codegen.generate(tc)
    if pair is not None:
        return CodecPlan(tc, pair[0], pair[1], "codegen")

    def encode(enc: CDREncoder, value) -> None:
        _cdr.encode_value_interp(enc, tc, value)

    def decode(dec: CDRDecoder):
        return _cdr.decode_value_interp(dec, tc)
    return CodecPlan(tc, encode, decode, "interp")


_CACHE_MAX = 4096
#: id(tc) -> (tc, plan); holding tc keeps the id stable.
_ID_CACHE: dict[int, tuple[TypeCode, CodecPlan]] = {}
#: structural-equality cache so equal TypeCode instances share one plan.
_EQ_CACHE: dict[TypeCode, CodecPlan] = {}


def get_plan(tc: TypeCode) -> CodecPlan:
    """Return the cached codec plan for *tc*, building it on first use."""
    entry = _ID_CACHE.get(id(tc))
    if entry is not None and entry[0] is tc:
        stats["hits"] += 1
        return entry[1]
    plan = _EQ_CACHE.get(tc)
    if plan is None:
        if len(_EQ_CACHE) >= _CACHE_MAX:
            _EQ_CACHE.clear()
            _ID_CACHE.clear()
        stats["misses"] += 1
        plan = _EQ_CACHE[tc] = _build(tc)
    else:
        stats["hits"] += 1
    if len(_ID_CACHE) >= _CACHE_MAX:
        _ID_CACHE.clear()
    _ID_CACHE[id(tc)] = (tc, plan)
    return plan


# -- per-operation codecs -----------------------------------------------------

class OperationCodec:
    """Pre-resolved plans for one OperationDef's request/reply bodies."""

    __slots__ = ("in_plans", "out_plans", "result_plan", "result_void",
                 "in1_encode", "in1_decode", "result_decode")

    def __init__(self, odef) -> None:
        self.in_plans = tuple(get_plan(p.tc) for p in odef.in_params())
        self.out_plans = tuple(get_plan(p.tc) for p in odef.out_params())
        self.result_plan = get_plan(odef.result)
        self.result_void = odef.result.kind is TCKind.VOID
        # Single-in-parameter operations are the common RPC shape; the
        # pre-bound plan methods let hot paths skip the generic
        # encode_in/decode_in frames (and their zip/listcomp) entirely.
        one = len(self.in_plans) == 1
        self.in1_encode = self.in_plans[0].encode if one else None
        self.in1_decode = self.in_plans[0].decode if one else None
        self.result_decode = self.result_plan.decode

    def encode_in(self, enc: CDREncoder, args) -> None:
        for plan, value in zip(self.in_plans, args):
            plan.encode(enc, value)

    def decode_in(self, dec: CDRDecoder) -> list:
        return [plan.decode(dec) for plan in self.in_plans]


#: OperationDefs carrying a memoized ``_codec``, tracked weakly so a
#: layer tracer can set memoized codecs aside without pinning
#: definitions in memory.
_MEMOIZED_ODEFS: "weakref.WeakSet" = weakref.WeakSet()


def op_codec(odef) -> OperationCodec:
    """Cached per-operation codec, stored on the OperationDef itself.

    OperationDef is a frozen dataclass, so the memo goes in via
    ``object.__setattr__``.  Hot paths may
    read ``odef._codec`` directly (guarded by AttributeError) to skip
    even this call."""
    try:
        return odef._codec
    except AttributeError:
        codec = OperationCodec(odef)
        object.__setattr__(odef, "_codec", codec)
        _MEMOIZED_ODEFS.add(odef)
        return codec
