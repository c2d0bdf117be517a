"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, make_server, print_answer


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.domain == "scenes"
        assert args.framework == "must"
        assert args.ask is None

    def test_domain_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--domain", "galaxies"])

    def test_one_shot_flag(self):
        args = build_parser().parse_args(["--ask", "moldy cheese", "--llm", "none"])
        assert args.ask == "moldy cheese"
        assert args.llm == "none"


class TestOneShot:
    def test_ask_roundtrip(self, capsys):
        exit_code = main(
            [
                "--domain",
                "food",
                "--size",
                "80",
                "--ask",
                "moldy cheese",
                "--index",
                "flat",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "mqa :" in captured.out
        assert "#" in captured.out

    def test_no_llm_mode(self, capsys):
        exit_code = main(
            [
                "--domain",
                "food",
                "--size",
                "80",
                "--llm",
                "none",
                "--ask",
                "fresh bread",
                "--index",
                "flat",
            ]
        )
        assert exit_code == 0
        assert "Top results" in capsys.readouterr().out


class TestShell:
    def test_scripted_session(self, monkeypatch, capsys):
        lines = iter(
            [
                "foggy clouds",
                "/select 0",
                "/refine more like this",
                "/status",
                "/weights",
                "/transcript",
                "/events",
                "/quit",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        exit_code = main(["--domain", "scenes", "--size", "80", "--index", "flat"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "selected #" in captured.out
        assert "status monitoring" in captured.out
        assert "frontend -> coordinator" in captured.out


    def test_a_malformed_rank_is_an_error_line(self, monkeypatch, capsys):
        """``/select abc`` used to end the shell with a ValueError traceback:
        the shell parsed the rank itself.  It now sends the word, and the
        route's body declaration refuses it."""
        lines = iter(["foggy clouds", "/select abc", "/reject 1.5", "/select 0", "/quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        exit_code = main(["--domain", "scenes", "--size", "80", "--index", "flat"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "error: 'rank' must be an integer, got 'abc'" in out
        assert "error: 'rank' must be an integer, got '1.5'" in out
        assert "selected #" in out


class TestRefusedConfiguration:
    """A refused configuration is one ``error:`` line on stderr and exit
    status 1 — it used to print a ``ConfigurationError`` traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--k", "0"], "error: result_count must be >= 1, got 0"),
            (["--inject", "encoder:error_rate=nan"],
             "error: fault site 'encoder': error_rate must be in [0, 1], got nan"),
            (["--inject", "encoder:latency_ms=inf,latency_rate=1"],
             "error: fault site 'encoder': latency_ms must be in [0, 3600000], got inf"),
            (["--size", "0"], "error: size must be >= 1, got 0"),
            (["--inject", "encoder:latency_ms=1e300,latency_rate=1", "--resilience"],
             "error: fault site 'encoder': latency_ms must be in [0, 3600000], "
             "got 1e+300"),
        ],
    )
    def test_one_line_and_status_one(self, argv, message):
        with pytest.raises(SystemExit) as caught:
            main(argv + ["--ask", "fog"])
        assert caught.value.code == message

    def test_an_integral_fault_value_is_an_integer(self):
        from repro.cli import parse_fault_specs

        faults = parse_fault_specs(["llm.generate:error_rate=1,max_faults=2,latency_ms=0.5"])
        assert faults == {"llm.generate": {"error_rate": 1, "max_faults": 2, "latency_ms": 0.5}}
        assert type(faults["llm.generate"]["max_faults"]) is int
