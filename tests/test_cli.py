"""Command-line surface: exit codes, transcripts, demos, REPL."""

import io
import json
import subprocess
import sys

import pytest

from intervalgames.cli import main


def run_cli(*argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(list(argv))


def test_play_covered_exit_zero(tmp_path, capsys):
    code = run_cli(
        "play", "--ruleset", "d", "--length", "w+1", "--one", "grid",
        "--two", "halving-omega-plus-1", "--innings", "8",
        "--json", str(tmp_path / "t.jsonl"),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "two-wins-covered" in out


def test_play_illegal_move_exit_two(tmp_path, capsys):
    code = run_cli(
        "play", "--ruleset", "d", "--length", "2", "--one", "grid",
        "--two", "chain-puncture", "--json", str(tmp_path / "t.jsonl"),
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "NotDiscrete" in out


def test_play_disjoint_puncture_exit_zero(tmp_path, capsys):
    code = run_cli(
        "play", "--ruleset", "c", "--length", "2", "--one", "grid",
        "--two", "chain-puncture", "--json", str(tmp_path / "t.jsonl"),
    )
    assert code == 0
    assert "two-wins-covered" in capsys.readouterr().out


def test_play_transcripts_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert (
            run_cli(
                "play", "--length", "w", "--one", "main-compact", "--two",
                "halving", "--innings", "6", "--json", str(path),
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_play_honors_output_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("INTERVALGAMES_OUT", str(tmp_path))
    assert run_cli("play", "--length", "3", "--two", "empty") == 0
    assert (tmp_path / "transcript.jsonl").exists()


def test_play_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "game.cfg"
    cfg.write_text(
        "# defaults\nruleset = disjoint\nlength = 2\ntwo = chain-puncture\n"
        f"json = {tmp_path / 'out.jsonl'}\n"
    )
    code = run_cli("play", "--config", str(cfg))
    assert code == 0
    lines = (tmp_path / "out.jsonl").read_text().splitlines()
    assert json.loads(lines[-1])["verdict"] == "two-wins-covered"


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "intervalgames", *argv],
        capture_output=True,
        text=True,
    )


def write_puncture_config(tmp_path):
    cfg = tmp_path / "game.cfg"
    cfg.write_text("ruleset = disjoint\nlength = 2\ntwo = chain-puncture\n")
    return str(cfg)


@pytest.mark.parametrize("flags", [["--two", "empty"], ["--two=empty"]])
def test_explicit_flags_beat_the_config_file(flags, tmp_path, capsys):
    cfg = write_puncture_config(tmp_path)
    code = run_cli("play", "--config", cfg, *flags, "--json", str(tmp_path / "t.jsonl"))
    out = capsys.readouterr().out
    assert code == 0
    assert "ruleset=disjoint length=2 " in out and "two=empty" in out


def test_explicit_flags_beat_the_config_file_from_the_shell(tmp_path):
    cfg = write_puncture_config(tmp_path)
    proc = run_module("play", "--config", cfg, "--two=empty", "--json", str(tmp_path / "t.jsonl"))
    assert proc.returncode == 0
    assert "two=empty" in proc.stdout


def test_cover_error_exits_3_with_one_line(tmp_path):
    # chain-puncture needs single-interval member traces; avoid-fixed's are not
    proc = run_module(
        "play", "--ruleset", "disjoint", "--length", "2", "--one", "avoid-fixed",
        "--two", "chain-puncture", "--json", str(tmp_path / "t.jsonl"),
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cover error: ")
    assert proc.stderr.count("\n") == 1


def test_usage_errors_exit_64(capsys):
    assert run_cli("play", "--one", "nope") == 64
    assert run_cli("demo", "nope") == 64
    assert run_cli("play", "--length", "spam") == 64
    assert run_cli("play", "--two", "bm-first-category:rationals") == 64
    assert run_cli("nonsense") == 64
    assert run_cli("interactive") == 64  # no side to play


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--target", "countable:foo"),
        ("--ambient", "[1,0]"),
        ("--ambient", "[0,1"),
        ("--innings", "0"),
        ("--innings", "abc"),
        ("--length", "w*w"),
    ],
)
def test_malformed_play_input_exits_64(flag, value, tmp_path, capsys):
    assert run_cli("play", flag, value, "--json", str(tmp_path / "t.jsonl")) == 64
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "t.jsonl").exists()


def test_missing_config_file_exits_64(tmp_path):
    proc = run_module("play", "--config", str(tmp_path / "nope.cfg"))
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage error: ") and "nope.cfg" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_unknown_config_key_exits_64(tmp_path, capsys):
    cfg = tmp_path / "game.cfg"
    cfg.write_text("rulset = disjoint\n")
    assert run_cli("play", "--config", str(cfg), "--json", str(tmp_path / "t.jsonl")) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "'rulset'" in err
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--suite", "nope"),
        ("analyze", "escape", "--two", "halving", "--witness", "5"),
        ("analyze", "core", "--two", "halving", "--depth", "0"),
    ],
)
def test_malformed_check_and_analyze_input_exits_64(argv):
    proc = run_module(*argv)
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage error: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("name", ["alpha-minus", "cantor", "rationals"])
def test_fast_demos_pass(name, capsys):
    assert run_cli("demo", name) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out and "all checks passed" in out


def test_analyze_core_json(capsys):
    assert run_cli("analyze", "core", "--two", "first-member", "--depth", "8") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["set"] == "[0,1/1024]"


def test_analyze_escape_json(capsys):
    assert (
        run_cli(
            "analyze", "escape", "--two", "countable:triadic", "--witness", "1/2",
            "--k", "5", "--search", "12",
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["indices"]) == 5
    assert payload["revalidates"] is True


def test_check_suites_exit_zero(capsys):
    assert run_cli("check", "--cases", "25") == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out


def test_interactive_as_two_accepts_and_rejects(monkeypatch, capsys):
    # vs the fixed avoidance cover: a discrete pair is accepted, the
    # touching pair is rejected with the shared closure point
    stdin_text = "(1/10,2/10);(3/10,4/10)\n(0,1/2);(1/2,1)\nempty\nquit\n"
    code = run_cli(
        "interactive", "--as", "two", "--one", "avoid-fixed", "--innings", "3",
        stdin_text=stdin_text, monkeypatch=monkeypatch,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "NotDiscrete" in out and "1/2" in out
    assert "uncovered measure so far: 4/5" in out


def test_interactive_as_two_reprompts_on_parse_error(monkeypatch, capsys):
    stdin_text = "garbage\nquit\n"
    code = run_cli(
        "interactive", "--as", "two", "--one", "grid", "--innings", "1",
        stdin_text=stdin_text, monkeypatch=monkeypatch,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "cannot parse" in out and "`;`-separated" in out


def test_interactive_as_one_validates_cover(monkeypatch, capsys):
    stdin_text = "(0,1/2)\n[0,1/2);(1/4,1]\nquit\n"
    code = run_cli(
        "interactive", "--as", "one", "--two", "halving", "--innings", "2",
        stdin_text=stdin_text, monkeypatch=monkeypatch,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "IncompleteCover" in out  # first cover misses part of [0,1]
    assert "opponent family" in out


def test_interactive_scores_against_the_target(monkeypatch, capsys):
    # [0,3/8) lies in a member of the avoidance cover and holds the target
    code = run_cli(
        "interactive", "--as", "two", "--one", "avoid-fixed",
        "--target", "closed:[0,1/4]", "--innings", "2",
        stdin_text="[0,3/8)\n[0,3/8)\n", monkeypatch=monkeypatch,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "target covered: the covering player wins" in out
    assert "truncated" not in out


def test_interactive_truncation_names_an_uncovered_target_part(monkeypatch, capsys):
    code = run_cli(
        "interactive", "--as", "two", "--one", "avoid-fixed",
        "--target", "closed:[0,1/4]", "--innings", "1",
        stdin_text="(0,1/8)\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "truncated after 1 innings; uncovered: [0,0];[1/8,1/4]" in capsys.readouterr().out


def test_interactive_side_from_the_config_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "side.cfg"
    cfg.write_text("as = two\n")
    code = run_cli(
        "interactive", "--config", str(cfg), stdin_text="quit\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert "resigned" in capsys.readouterr().out


def test_bracket_report_command(capsys):
    assert run_cli("bracket", "--lengths", "1,w,w+1", "--innings", "5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bracket"]["smallest_two_sweep"] == "w+1"
    assert payload["bracket"]["largest_one_sweep"] == "w"


def test_console_entry_point_runs():
    proc = run_module("demo", "alpha-minus")
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout
