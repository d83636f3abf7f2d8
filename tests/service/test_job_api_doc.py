"""docs/SERVICE.md's job API table names every ``JobSpec`` field."""

import dataclasses
import re
from pathlib import Path

from repro.apispec import JobSpec

SERVICE_DOC = Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"


def documented_fields():
    """Backticked names in the first column of the job API field table."""
    text = SERVICE_DOC.read_text()
    section = text.split("## The unified job API", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| ") and not line.startswith("| field "):
            names.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return names


def test_the_table_lists_exactly_the_jobspec_fields():
    fields = {field.name for field in dataclasses.fields(JobSpec)}
    assert documented_fields() == fields
