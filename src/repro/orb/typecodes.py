"""TypeCodes: runtime descriptions of IDL types.

A :class:`TypeCode` drives both CDR marshalling (:mod:`repro.orb.cdr`)
and value validation.  The constructors at the bottom mirror the ORB
``create_*_tc`` operations of the CORBA specification.
"""

from __future__ import annotations

import enum
from typing import Any, Optional, Sequence

from repro.orb.exceptions import BAD_PARAM


class TCKind(enum.Enum):
    """The kind tags of the CORBA TypeCode model (the subset we support)."""

    NULL = 0
    VOID = 1
    SHORT = 2
    LONG = 3
    USHORT = 4
    ULONG = 5
    FLOAT = 6
    DOUBLE = 7
    BOOLEAN = 8
    CHAR = 9
    OCTET = 10
    ANY = 11
    STRING = 18
    STRUCT = 15
    UNION = 16
    ENUM = 17
    SEQUENCE = 19
    ARRAY = 20
    ALIAS = 21
    EXCEPT = 22
    LONGLONG = 23
    ULONGLONG = 24
    OBJREF = 14
    OCTETSEQ = 100  # fast path: sequence<octet> as Python bytes


_PRIMITIVE_KINDS = {
    TCKind.NULL, TCKind.VOID, TCKind.SHORT, TCKind.LONG, TCKind.USHORT,
    TCKind.ULONG, TCKind.FLOAT, TCKind.DOUBLE, TCKind.BOOLEAN, TCKind.CHAR,
    TCKind.OCTET, TCKind.STRING, TCKind.LONGLONG, TCKind.ULONGLONG,
    TCKind.ANY, TCKind.OCTETSEQ,
}


class TypeCode:
    """Immutable description of an IDL type.

    Structure-bearing kinds populate:

    - STRUCT / EXCEPT: ``name``, ``repo_id``, ``members`` =
      [(member_name, TypeCode), ...]
    - ENUM: ``name``, ``repo_id``, ``labels`` = [str, ...]
    - SEQUENCE / ARRAY: ``content_type`` (+ ``length`` for ARRAY)
    - ALIAS: ``name``, ``repo_id``, ``content_type``
    - OBJREF: ``name``, ``repo_id``
    - UNION: ``name``, ``repo_id``, ``discriminator_type``,
      ``members`` = [(label_value, member_name, TypeCode), ...],
      ``default_index`` (or -1)
    """

    __slots__ = (
        "kind", "name", "repo_id", "members", "labels", "content_type",
        "length", "discriminator_type", "default_index", "_hash",
    )

    def __init__(
        self,
        kind: TCKind,
        name: str = "",
        repo_id: str = "",
        members: Optional[Sequence] = None,
        labels: Optional[Sequence[str]] = None,
        content_type: Optional["TypeCode"] = None,
        length: int = 0,
        discriminator_type: Optional["TypeCode"] = None,
        default_index: int = -1,
    ) -> None:
        self.kind = kind
        self.name = name
        self.repo_id = repo_id
        self.members = tuple(members) if members is not None else ()
        self.labels = tuple(labels) if labels is not None else ()
        self.content_type = content_type
        self.length = length
        self.discriminator_type = discriminator_type
        self.default_index = default_index
        self._hash: Optional[int] = None

    # -- identity ---------------------------------------------------------
    def _key(self) -> tuple:
        return (
            self.kind, self.name, self.repo_id, self.members, self.labels,
            self.content_type, self.length, self.discriminator_type,
            self.default_index,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TypeCode) and self._key() == other._key()

    def __hash__(self) -> int:
        # TypeCodes key the codec-plan cache, so hashing is on the ORB
        # hot path; the deep structural hash is computed once.
        h = self._hash
        if h is None:
            h = self._hash = hash(self._key())
        return h

    def __repr__(self) -> str:
        if self.kind in _PRIMITIVE_KINDS:
            return f"TC:{self.kind.name.lower()}"
        if self.kind in (TCKind.SEQUENCE, TCKind.ARRAY):
            suffix = f"[{self.length}]" if self.kind is TCKind.ARRAY else ""
            return f"TC:{self.kind.name.lower()}<{self.content_type!r}>{suffix}"
        return f"TC:{self.kind.name.lower()}({self.name})"

    def member_names(self) -> list[str]:
        if self.kind in (TCKind.STRUCT, TCKind.EXCEPT):
            return [n for n, _tc in self.members]
        if self.kind is TCKind.UNION:
            return [n for _lbl, n, _tc in self.members]
        raise BAD_PARAM(f"{self!r} has no members")


# -- canonical primitive instances -------------------------------------------
tc_null = TypeCode(TCKind.NULL)
tc_void = TypeCode(TCKind.VOID)
tc_short = TypeCode(TCKind.SHORT)
tc_long = TypeCode(TCKind.LONG)
tc_ushort = TypeCode(TCKind.USHORT)
tc_ulong = TypeCode(TCKind.ULONG)
tc_longlong = TypeCode(TCKind.LONGLONG)
tc_ulonglong = TypeCode(TCKind.ULONGLONG)
tc_float = TypeCode(TCKind.FLOAT)
tc_double = TypeCode(TCKind.DOUBLE)
tc_boolean = TypeCode(TCKind.BOOLEAN)
tc_char = TypeCode(TCKind.CHAR)
tc_octet = TypeCode(TCKind.OCTET)
tc_string = TypeCode(TCKind.STRING)
tc_any = TypeCode(TCKind.ANY)
tc_octetseq = TypeCode(TCKind.OCTETSEQ)

#: Generic object reference ("Object" in IDL).
tc_objref = TypeCode(TCKind.OBJREF, name="Object",
                     repo_id="IDL:omg.org/CORBA/Object:1.0")

_BY_NAME: dict[str, TypeCode] = {
    "void": tc_void,
    "short": tc_short,
    "long": tc_long,
    "unsigned short": tc_ushort,
    "unsigned long": tc_ulong,
    "long long": tc_longlong,
    "unsigned long long": tc_ulonglong,
    "float": tc_float,
    "double": tc_double,
    "boolean": tc_boolean,
    "char": tc_char,
    "octet": tc_octet,
    "string": tc_string,
    "any": tc_any,
    "Object": tc_objref,
}


def primitive(name: str) -> TypeCode:
    """Look up a primitive TypeCode by its IDL spelling."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise BAD_PARAM(f"not a primitive IDL type: {name!r}") from None


# -- constructors ------------------------------------------------------------

def struct_tc(name: str, members: Sequence[tuple[str, TypeCode]],
              repo_id: str = "") -> TypeCode:
    """Create a struct TypeCode with ordered ``(name, type)`` members."""
    _check_members(members)
    return TypeCode(TCKind.STRUCT, name=name,
                    repo_id=repo_id or f"IDL:repro/{name}:1.0",
                    members=members)


def except_tc(name: str, members: Sequence[tuple[str, TypeCode]],
              repo_id: str = "") -> TypeCode:
    """Create an exception TypeCode (same shape as a struct)."""
    _check_members(members)
    return TypeCode(TCKind.EXCEPT, name=name,
                    repo_id=repo_id or f"IDL:repro/{name}:1.0",
                    members=members)


def enum_tc(name: str, labels: Sequence[str], repo_id: str = "") -> TypeCode:
    """Create an enum TypeCode; values travel as their label index."""
    if not labels:
        raise BAD_PARAM("enum needs at least one label")
    if len(set(labels)) != len(labels):
        raise BAD_PARAM(f"duplicate enum labels in {name!r}")
    return TypeCode(TCKind.ENUM, name=name,
                    repo_id=repo_id or f"IDL:repro/{name}:1.0",
                    labels=labels)


def sequence_tc(content: TypeCode, bound: int = 0) -> TypeCode:
    """Create a sequence TypeCode (``bound=0`` means unbounded)."""
    if content.kind is TCKind.OCTET:
        return tc_octetseq
    return TypeCode(TCKind.SEQUENCE, content_type=content, length=bound)


def array_tc(content: TypeCode, length: int) -> TypeCode:
    """Create a fixed-length array TypeCode."""
    if length <= 0:
        raise BAD_PARAM(f"array length must be positive, got {length}")
    return TypeCode(TCKind.ARRAY, content_type=content, length=length)


def alias_tc(name: str, content: TypeCode, repo_id: str = "") -> TypeCode:
    """Create a typedef alias TypeCode."""
    return TypeCode(TCKind.ALIAS, name=name,
                    repo_id=repo_id or f"IDL:repro/{name}:1.0",
                    content_type=content)


def objref_tc(repo_id: str, name: str) -> TypeCode:
    """Create an object-reference TypeCode for a specific interface."""
    return TypeCode(TCKind.OBJREF, name=name, repo_id=repo_id)


def union_tc(name: str, discriminator: TypeCode,
             members: Sequence[tuple[Any, str, TypeCode]],
             default_index: int = -1, repo_id: str = "") -> TypeCode:
    """Create a union TypeCode with ``(label, name, type)`` arms."""
    if not members:
        raise BAD_PARAM("union needs at least one arm")
    return TypeCode(TCKind.UNION, name=name,
                    repo_id=repo_id or f"IDL:repro/{name}:1.0",
                    members=members, discriminator_type=discriminator,
                    default_index=default_index)


def _check_members(members: Sequence[tuple[str, TypeCode]]) -> None:
    names = [n for n, _ in members]
    if len(set(names)) != len(names):
        raise BAD_PARAM(f"duplicate member names: {names}")
    for _, tc in members:
        if not isinstance(tc, TypeCode):
            raise BAD_PARAM(f"member type must be a TypeCode, got {tc!r}")
