"""CLI surface for agentic answering (``--agentic`` and friends)."""

import pytest

from repro.cli import build_parser, main, print_answer


class TestAgenticFlags:
    def test_defaults_off(self):
        args = build_parser().parse_args([])
        assert args.agentic is False

    def test_flags_parse(self):
        args = build_parser().parse_args(["--agentic"])
        assert args.agentic is True
        # The hop cap and the refine rounds are the answerer's own settings.
        for flag in ("--agentic-max-hops", "--agentic-refine-rounds"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([flag, "2"])


class TestAgenticOneShot:
    def test_ask_prints_claims_and_groundedness(self, capsys):
        exit_code = main(
            [
                "--domain", "scenes",
                "--size", "80",
                "--ask", "foggy rainy peaks",
                "--agentic",
                "--index", "flat",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "claims:" in captured.out
        assert "groundedness:" in captured.out
        assert "(Evidence check:" in captured.out

    def test_without_flag_stays_single_hop(self, capsys):
        exit_code = main(
            [
                "--domain", "scenes",
                "--size", "80",
                "--ask", "foggy rainy peaks",
                "--index", "flat",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "claims:" not in captured.out
        assert "groundedness:" not in captured.out


class TestPrintAnswer:
    def test_payload_without_claims_renders_plainly(self, capsys):
        print_answer(
            {
                "text": "hello",
                "items": [
                    {
                        "object_id": 1,
                        "description": "desc",
                        "score": -0.5,
                        "preferred": False,
                    }
                ],
            }
        )
        out = capsys.readouterr().out
        assert "claims:" not in out and "groundedness" not in out

    def test_payload_with_claims_renders_citations(self, capsys):
        print_answer(
            {
                "text": "hello",
                "items": [],
                "claims": [
                    {
                        "concept": "foggy",
                        "citations": [3, 5],
                        "supported": True,
                        "refined": True,
                    }
                ],
                "groundedness": 1.0,
            }
        )
        out = capsys.readouterr().out
        assert "+ foggy: cites [#3, #5] (refined)" in out
        assert "groundedness: 1.0" in out
