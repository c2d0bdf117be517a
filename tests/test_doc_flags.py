"""Every ``--flag`` the documentation mentions is a flag that exists."""

import re
from pathlib import Path

import pytest

from repro import cli

REPO = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
#: Flags of commands other than ``repro`` / ``repro loadgen`` / ``repro stats``.
OTHER_TOOLS = {
    "--trace-id", "--format",  # repro replay / repro profile
    "--check", "--seconds", "--workload",  # benchmarks/mqa_bench
    "--benchmark-only",  # pytest-benchmark
    "--no-build-isolation",  # pip
}


@pytest.mark.parametrize("doc", DOCS)
def test_documented_flags_are_accepted_by_a_parser(doc):
    accepted = {
        option
        for build in (cli.build_parser, cli.build_loadgen_parser, cli.build_stats_parser)
        for action in build()._actions
        for option in action.option_strings
    }
    mentioned = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", (REPO / doc).read_text()))
    assert len(mentioned) >= 10, f"{doc}: the flag scan found almost nothing"
    unknown = sorted(mentioned - accepted - OTHER_TOOLS)
    assert not unknown, f"{doc} mentions {unknown}, which no parser accepts"
