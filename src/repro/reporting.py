"""Experiment-results digest.

``pytest benchmarks/ --benchmark-only`` persists every experiment table
under ``benchmarks/results/``; this module collects them into one markdown
digest, so a full reproduction run ends with a single reviewable artefact.
``python -m repro.reporting > benchmarks/RESULTS.md`` regenerates the
committed digest byte for byte.  The digest holds result tables only:
timing comparisons between commits are the ``benchmarks/mqa_bench``
harness's job.
"""

from __future__ import annotations

from pathlib import Path
from typing import List

EXPERIMENT_ORDER = (
    "fig1", "fig2", "fig3", "fig4", "fig5",
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
)


def collect_results(results_dir: "str | Path") -> List[Path]:
    """Result files under ``results_dir``, in experiment order."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        return []
    found = {path.stem: path for path in results_dir.glob("*.txt")}
    ordered = [found.pop(stem) for stem in EXPERIMENT_ORDER if stem in found]
    ordered.extend(sorted(found.values()))
    return ordered


def render_digest(results_dir: "str | Path") -> str:
    """All experiment tables as one markdown document."""
    paths = collect_results(results_dir)
    if not paths:
        return (
            "No experiment results found. Run "
            "`pytest benchmarks/ --benchmark-only` first.\n"
        )
    sections = ["# Experiment results digest", ""]
    for path in paths:
        content = path.read_text().rstrip()
        title, _, body = content.partition("\n")
        sections.append(f"## {title}")
        sections.append("")
        sections.append("```")
        sections.append(body)
        sections.append("```")
        sections.append("")
    return "\n".join(sections)


def write_digest(
    results_dir: "str | Path",
    output: "str | Path",
) -> Path:
    """Write the digest markdown to ``output`` and return its path."""
    output = Path(output)
    output.write_text(render_digest(results_dir))
    return output


def main() -> int:
    """Print the digest for the repository's benchmark results."""
    repo_root = Path(__file__).resolve().parents[2]
    print(render_digest(repo_root / "benchmarks" / "results"), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    raise SystemExit(main())
