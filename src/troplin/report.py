"""Structured pass/fail reports for validators and the command line."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class Check:
    name: str
    status: str
    detail: str = ""


@dataclass
class Report:
    subject: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, PASS if ok else FAIL, detail))

    def skip(self, name: str, detail: str = "") -> None:
        self.checks.append(Check(name, SKIPPED, detail))

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def status(self) -> str:
        return PASS if self.passed else FAIL

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def failure_summary(self) -> str:
        """One line naming every failed check, by its detail where it has one."""
        return "; ".join(c.detail or c.name for c in self.failures())

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "status": self.status,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in self.checks
            ],
        }
