"""The three CORBA-LC descriptor documents and their XML round-trips.

Every descriptor serializes to XML (:meth:`to_xml`) and parses back with
schema validation (:meth:`from_xml`), mirroring the paper's "IDL and XML
files ... stored in the package jointly with the component binary".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional
from xml.etree import ElementTree as ET

from repro.util.errors import ValidationError
from repro.xmlmeta.schema import (
    ElementSpec,
    MANY,
    ONE,
    OPT,
    SOME,
    parse_and_validate,
)
from repro.xmlmeta.versions import Version, VersionRange

# Enumerated vocabularies (§2.1.1 static description of offerings/needs).
MOBILITY = ("mobile", "pinned")
REPLICATION = ("none", "stateless", "coordinated")
AGGREGATION = ("none", "data-parallel")
LICENSES = ("free", "pay-per-use", "subscription")
LIFECYCLES = ("service", "session", "process")


def _check_enum(label: str, value: str, allowed: tuple[str, ...]) -> str:
    if value not in allowed:
        raise ValidationError(f"{label} must be one of {allowed}, got {value!r}")
    return value


def _indent(text: str) -> str:
    # ElementTree.indent exists from 3.9; use it for readable documents.
    root = ET.fromstring(text)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


# ---------------------------------------------------------------------------
# Software (binary package) descriptor — the static dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dependency:
    """Another component (with acceptable versions) this one requires."""

    component: str
    versions: VersionRange = VersionRange("")

    def satisfied_by(self, name: str, version: Version) -> bool:
        return name == self.component and self.versions.matches(version)


@dataclass(frozen=True)
class ImplementationDescriptor:
    """One platform-specific binary inside the package.

    ``entry_point`` names the executable content (for us, a registered
    Python factory: the stand-in for a DLL/.class/TCL script, §2.3);
    ``binary_path`` is the archive member holding the payload bytes.
    """

    os: str
    arch: str
    orb: str
    entry_point: str
    binary_path: str

    def matches(self, os: str, arch: str, orb: str) -> bool:
        def ok(want: str, have: str) -> bool:
            return want in ("*", have)
        return ok(self.os, os) and ok(self.arch, arch) and ok(self.orb, orb)


@dataclass
class SoftwareDescriptor:
    """OSD-derived package metadata (§2.1.1)."""

    name: str
    version: Version
    vendor: str = "unknown"
    abstract: str = ""
    license: str = "free"
    cost_per_use: float = 0.0
    mobility: str = "mobile"
    replication: str = "none"
    aggregation: str = "none"
    signature: str = ""            # hex digest; "" = unsigned
    dependencies: list[Dependency] = field(default_factory=list)
    implementations: list[ImplementationDescriptor] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("component name must be non-empty")
        _check_enum("license", self.license, LICENSES)
        _check_enum("mobility", self.mobility, MOBILITY)
        _check_enum("replication", self.replication, REPLICATION)
        _check_enum("aggregation", self.aggregation, AGGREGATION)

    @property
    def is_mobile(self) -> bool:
        return self.mobility == "mobile"

    def implementation_for(self, os: str, arch: str,
                           orb: str) -> Optional[ImplementationDescriptor]:
        """The first implementation runnable on the given platform."""
        for impl in self.implementations:
            if impl.matches(os, arch, orb):
                return impl
        return None

    # -- XML ------------------------------------------------------------------
    def to_xml(self) -> str:
        root = ET.Element("softpkg", {
            "name": self.name,
            "version": str(self.version),
            "vendor": self.vendor,
        })
        if self.abstract:
            ET.SubElement(root, "abstract").text = self.abstract
        ET.SubElement(root, "license", {
            "model": self.license,
            "cost-per-use": repr(self.cost_per_use),
        })
        ET.SubElement(root, "distribution", {
            "mobility": self.mobility,
            "replication": self.replication,
            "aggregation": self.aggregation,
        })
        if self.signature:
            ET.SubElement(root, "signature", {"digest": self.signature})
        for dep in self.dependencies:
            ET.SubElement(root, "dependency", {
                "component": dep.component,
                "versions": dep.versions.text,
            })
        for impl in self.implementations:
            ET.SubElement(root, "implementation", {
                "os": impl.os, "arch": impl.arch, "orb": impl.orb,
                "entry-point": impl.entry_point,
                "binary": impl.binary_path,
            })
        return _indent(ET.tostring(root, encoding="unicode"))

    _SCHEMA = (
        ElementSpec("softpkg", required_attrs=("name", "version", "vendor"))
        .child(ElementSpec("abstract", text=True), OPT)
        .child(ElementSpec("license",
                           required_attrs=("model",),
                           optional_attrs=("cost-per-use",)), ONE)
        .child(ElementSpec("distribution",
                           required_attrs=("mobility", "replication",
                                           "aggregation")), ONE)
        .child(ElementSpec("signature", required_attrs=("digest",)), OPT)
        .child(ElementSpec("dependency",
                           required_attrs=("component",),
                           optional_attrs=("versions",)), MANY)
        .child(ElementSpec("implementation",
                           required_attrs=("os", "arch", "orb",
                                           "entry-point", "binary")), MANY)
    )

    @classmethod
    def from_xml(cls, xml_text: str) -> "SoftwareDescriptor":
        root = parse_and_validate(xml_text, cls._SCHEMA)
        abstract = root.findtext("abstract", default="") or ""
        lic = root.find("license")
        dist = root.find("distribution")
        sig = root.find("signature")
        deps = [
            Dependency(el.get("component"),
                       VersionRange(el.get("versions", "")))
            for el in root.findall("dependency")
        ]
        impls = [
            ImplementationDescriptor(
                os=el.get("os"), arch=el.get("arch"), orb=el.get("orb"),
                entry_point=el.get("entry-point"),
                binary_path=el.get("binary"),
            )
            for el in root.findall("implementation")
        ]
        return cls(
            name=root.get("name"),
            version=Version.parse(root.get("version")),
            vendor=root.get("vendor"),
            abstract=abstract.strip(),
            license=lic.get("model"),
            cost_per_use=float(lic.get("cost-per-use", "0.0")),
            mobility=dist.get("mobility"),
            replication=dist.get("replication"),
            aggregation=dist.get("aggregation"),
            signature=sig.get("digest") if sig is not None else "",
            dependencies=deps,
            implementations=impls,
        )


# ---------------------------------------------------------------------------
# Component type descriptor — the dynamic dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PortDecl:
    """An interface port: a facet (provides) or receptacle (uses)."""

    name: str
    repo_id: str
    optional: bool = False   # for 'uses': app can start without it


@dataclass(frozen=True)
class EventPortDecl:
    """An event port: a source (emits) or sink (consumes)."""

    name: str
    event_kind: str


@dataclass(frozen=True)
class QoSSpec:
    """Run-time resource requirements of an instance (§2.1.2).

    ``cpu_units`` is sustained work-units/s, ``memory_mb`` resident
    memory, ``bandwidth_bps`` the minimum stream bandwidth the instance
    needs to its peers.
    """

    cpu_units: float = 0.0
    memory_mb: float = 0.0
    bandwidth_bps: float = 0.0

    def fits_within(self, other: "QoSSpec") -> bool:
        """True if *other*'s capacities cover these requirements."""
        return (self.cpu_units <= other.cpu_units
                and self.memory_mb <= other.memory_mb
                and self.bandwidth_bps <= other.bandwidth_bps)


@dataclass
class ComponentTypeDescriptor:
    """Run-time (dynamic dimension) properties of a component (§2.1.2)."""

    name: str
    description: str = ""
    provides: list[PortDecl] = field(default_factory=list)
    uses: list[PortDecl] = field(default_factory=list)
    emits: list[EventPortDecl] = field(default_factory=list)
    consumes: list[EventPortDecl] = field(default_factory=list)
    qos: QoSSpec = field(default_factory=QoSSpec)
    lifecycle: str = "session"
    framework_services: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("component type name must be non-empty")
        _check_enum("lifecycle", self.lifecycle, LIFECYCLES)
        seen: set[str] = set()
        for port in list(self.provides) + list(self.uses):
            if port.name in seen:
                raise ValidationError(f"duplicate port name {port.name!r}")
            seen.add(port.name)

    def required_components(self) -> list[PortDecl]:
        return [p for p in self.uses if not p.optional]

    # -- XML ---------------------------------------------------------------------
    def to_xml(self) -> str:
        root = ET.Element("componenttype", {
            "name": self.name,
            "lifecycle": self.lifecycle,
        })
        if self.description:
            ET.SubElement(root, "description").text = self.description
        for port in self.provides:
            ET.SubElement(root, "provides", {
                "name": port.name, "repoid": port.repo_id,
            })
        for port in self.uses:
            ET.SubElement(root, "uses", {
                "name": port.name, "repoid": port.repo_id,
                "optional": "yes" if port.optional else "no",
            })
        for ev in self.emits:
            ET.SubElement(root, "emits", {
                "name": ev.name, "kind": ev.event_kind,
            })
        for ev in self.consumes:
            ET.SubElement(root, "consumes", {
                "name": ev.name, "kind": ev.event_kind,
            })
        ET.SubElement(root, "qos", {
            "cpu": repr(self.qos.cpu_units),
            "memory": repr(self.qos.memory_mb),
            "bandwidth": repr(self.qos.bandwidth_bps),
        })
        for svc in self.framework_services:
            ET.SubElement(root, "service", {"name": svc})
        return _indent(ET.tostring(root, encoding="unicode"))

    _SCHEMA = (
        ElementSpec("componenttype", required_attrs=("name", "lifecycle"))
        .child(ElementSpec("description", text=True), OPT)
        .child(ElementSpec("provides", required_attrs=("name", "repoid")), MANY)
        .child(ElementSpec("uses", required_attrs=("name", "repoid"),
                           optional_attrs=("optional",)), MANY)
        .child(ElementSpec("emits", required_attrs=("name", "kind")), MANY)
        .child(ElementSpec("consumes", required_attrs=("name", "kind")), MANY)
        .child(ElementSpec("qos",
                           required_attrs=("cpu", "memory", "bandwidth")), ONE)
        .child(ElementSpec("service", required_attrs=("name",)), MANY)
    )

    @classmethod
    def from_xml(cls, xml_text: str) -> "ComponentTypeDescriptor":
        root = parse_and_validate(xml_text, cls._SCHEMA)
        qos = root.find("qos")
        return cls(
            name=root.get("name"),
            lifecycle=root.get("lifecycle"),
            description=(root.findtext("description", default="") or "").strip(),
            provides=[PortDecl(el.get("name"), el.get("repoid"))
                      for el in root.findall("provides")],
            uses=[PortDecl(el.get("name"), el.get("repoid"),
                           optional=el.get("optional", "no") == "yes")
                  for el in root.findall("uses")],
            emits=[EventPortDecl(el.get("name"), el.get("kind"))
                   for el in root.findall("emits")],
            consumes=[EventPortDecl(el.get("name"), el.get("kind"))
                      for el in root.findall("consumes")],
            qos=QoSSpec(cpu_units=float(qos.get("cpu")),
                        memory_mb=float(qos.get("memory")),
                        bandwidth_bps=float(qos.get("bandwidth"))),
            framework_services=[el.get("name")
                                for el in root.findall("service")],
        )


# ---------------------------------------------------------------------------
# Assembly descriptor — applications as bootstrap components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssemblyInstance:
    """One named instance the application requires (§2.4.4)."""

    name: str
    component: str
    versions: VersionRange = VersionRange("")


@dataclass(frozen=True)
class AssemblyConnection:
    """Wire ``from_instance.from_port`` (a receptacle or event sink) to
    ``to_instance.to_port`` (a facet or event source)."""

    from_instance: str
    from_port: str
    to_instance: str
    to_port: str
    kind: str = "interface"   # or "event"


@dataclass
class AssemblyDescriptor:
    """The explicit instance/connection rules of an application."""

    name: str
    instances: list[AssemblyInstance] = field(default_factory=list)
    connections: list[AssemblyConnection] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("assembly name must be non-empty")
        names = [i.name for i in self.instances]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate instance names in {self.name}")
        known = set(names)
        for conn in self.connections:
            for inst in (conn.from_instance, conn.to_instance):
                if inst not in known:
                    raise ValidationError(
                        f"connection references unknown instance {inst!r}"
                    )
            if conn.kind not in ("interface", "event"):
                raise ValidationError(f"bad connection kind {conn.kind!r}")

    # -- XML --------------------------------------------------------------------
    def to_xml(self) -> str:
        root = ET.Element("assembly", {"name": self.name})
        for inst in self.instances:
            ET.SubElement(root, "instance", {
                "name": inst.name,
                "component": inst.component,
                "versions": inst.versions.text,
            })
        for conn in self.connections:
            ET.SubElement(root, "connect", {
                "from": f"{conn.from_instance}.{conn.from_port}",
                "to": f"{conn.to_instance}.{conn.to_port}",
                "kind": conn.kind,
            })
        return _indent(ET.tostring(root, encoding="unicode"))

    _SCHEMA = (
        ElementSpec("assembly", required_attrs=("name",))
        .child(ElementSpec("instance",
                           required_attrs=("name", "component"),
                           optional_attrs=("versions",)), SOME)
        .child(ElementSpec("connect",
                           required_attrs=("from", "to"),
                           optional_attrs=("kind",)), MANY)
    )

    @classmethod
    def from_xml(cls, xml_text: str) -> "AssemblyDescriptor":
        root = parse_and_validate(xml_text, cls._SCHEMA)
        instances = [
            AssemblyInstance(el.get("name"), el.get("component"),
                             VersionRange(el.get("versions", "")))
            for el in root.findall("instance")
        ]

        def split_endpoint(text: str) -> tuple[str, str]:
            if "." not in text:
                raise ValidationError(f"bad endpoint {text!r}")
            inst, port = text.split(".", 1)
            return inst, port

        connections = []
        for el in root.findall("connect"):
            fi, fp = split_endpoint(el.get("from"))
            ti, tp = split_endpoint(el.get("to"))
            connections.append(AssemblyConnection(
                fi, fp, ti, tp, kind=el.get("kind", "interface")))
        return cls(name=root.get("name"), instances=instances,
                   connections=connections)
