"""Grandfathered-findings baseline for simlint.

A baseline entry says "this finding is known, accepted, and documented
— don't fail the gate over it".  Entries are keyed by *(path, code,
message)* — deliberately **not** by line number, so unrelated edits
above a grandfathered site don't invalidate the baseline — with a
``count`` bounding how many identical findings the entry absorbs and a
mandatory human ``reason``.

The contract is two-sided: an unbaselined finding fails the gate, and
a baseline entry that no longer matches anything is reported as
**stale** (the violation was fixed — delete the entry) so the file can
only shrink toward zero, never silently rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Diagnostics
from repro.util.diagnostics import Finding

#: code used for "baseline entry matched nothing" findings.
STALE_CODE = "SIM090"


def strip_line(location: str) -> str:
    """``path:123`` -> ``path`` (line numbers are baseline-unstable)."""
    path, sep, tail = location.rpartition(":")
    if sep and tail.isdigit():
        return path
    return location


@dataclass(frozen=True)
class BaselineEntry:
    path: str
    code: str
    message: str
    count: int = 1
    reason: str = ""

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.path, self.code, self.message)

    def as_dict(self) -> dict:
        return {"path": self.path, "code": self.code,
                "message": self.message, "count": self.count,
                "reason": self.reason}


class Baseline:
    """A set of grandfathered findings, persisted as sorted JSON."""

    VERSION = 1

    def __init__(self, entries: Iterable[BaselineEntry] = ()) -> None:
        self.entries: list[BaselineEntry] = list(entries)

    # -- persistence --------------------------------------------------------
    @classmethod
    def load(cls, path) -> "Baseline":
        data = json.loads(Path(path).read_text())
        if data.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported baseline version {data.get('version')!r}")
        return cls(BaselineEntry(
            path=e["path"], code=e["code"], message=e["message"],
            count=int(e.get("count", 1)), reason=e.get("reason", ""))
            for e in data.get("entries", []))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    def to_json(self) -> str:
        entries = sorted(self.entries,
                         key=lambda e: (e.path, e.code, e.message))
        return json.dumps(
            {"version": self.VERSION,
             "entries": [e.as_dict() for e in entries]},
            indent=2, sort_keys=True) + "\n"

    # -- construction from a run --------------------------------------------
    @classmethod
    def from_diagnostics(cls, diag: Diagnostics,
                         reason: str = "grandfathered") -> "Baseline":
        counts: dict[tuple[str, str, str], int] = {}
        for finding in diag:
            key = finding_key(finding)
            counts[key] = counts.get(key, 0) + 1
        return cls(BaselineEntry(path=p, code=c, message=m, count=n,
                                 reason=reason)
                   for (p, c, m), n in counts.items())

    # -- application --------------------------------------------------------
    def apply(self, diag: Diagnostics) -> Diagnostics:
        """Findings minus baselined ones, plus stale-entry findings.

        Returns a new :class:`Diagnostics`; *diag* is not modified.
        """
        budget: dict[tuple[str, str, str], int] = {}
        for entry in self.entries:
            budget[entry.key] = budget.get(entry.key, 0) + entry.count
        out = Diagnostics()
        suppressed = 0
        for finding in diag:
            key = finding_key(finding)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                suppressed += 1
                continue
            out.findings.append(finding)
        for entry in self.entries:
            remaining = budget.get(entry.key, 0)
            if remaining > 0:
                budget[entry.key] = 0
                out.warning(
                    STALE_CODE, entry.path,
                    f"stale baseline entry: {entry.code} "
                    f"({entry.message!r}) matched "
                    f"{entry.count - remaining}/{entry.count} "
                    f"finding(s); the violation was fixed — delete "
                    f"the entry")
        return out

    def __len__(self) -> int:
        return len(self.entries)


def finding_key(finding: Finding) -> tuple[str, str, str]:
    """The baseline key a finding would be matched under."""
    return (strip_line(finding.location), finding.code, finding.message)
