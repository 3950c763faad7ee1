"""Command-line surface: exit codes, transcripts, demos, REPL."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from intervalgames import catalog
from intervalgames.cli import DEMOS, main
from intervalgames.sets import closed


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
        ("--target", "countablexyz"),  # not `countable`, `countable:` or `countable:NAME`
        ("--target", "gdeltaxyz"),
        ("--ambient", "[1,0]"),
        ("--ambient", "[0,1"),
        ("--innings", "0"),
        ("--innings", "abc"),
        ("--length", "w*w"),
        ("--target", "closed:[2,3]"),  # outside the ambient [0,1]
        ("--target", "closed:[0,1/4];[1/2,2]"),
    ],
)
def test_malformed_play_input_exits_64(flag, value, tmp_path, capsys):
    assert run_cli("play", flag, value, "--json", str(tmp_path / "t.jsonl")) == 64
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "t.jsonl").exists()


def test_unwritable_transcript_path_exits_64(tmp_path):
    proc = run_module("play", "--length", "2", "--json", str(tmp_path / "missing" / "t.jsonl"))
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage error: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


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
        ("analyze", "core", "--two", "halving", "--tau", "0"),
        ("analyze", "core", "--two", "halving", "--tau", "2,-1"),
        ("analyze", "escape", "--two", "halving", "--k", "0"),
        ("analyze", "escape", "--two", "halving", "--search", "0"),
        ("check", "--cases", "-1"),
    ],
)
def test_malformed_check_and_analyze_input_exits_64(argv):
    proc = run_module(*argv)
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage error: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv,blamed",
    [
        (("analyze", "core", "--two", "halving", "--ambient", "(0,1)"), "ambient must"),
        (("analyze", "escape", "--two", "halving", "--ambient", "[0,0]"), "ambient must"),
        (("interactive", "--as", "two", "--ambient", "[0,0]"), "ambient must"),
        (("interactive", "--as", "one", "--ambient", "[0,0]"), "ambient must"),
        (("interactive", "--as", "one", "--ruleset", "foo"), "ruleset must"),
        (("interactive", "--as", "two", "--target", "closed:[2,3]"), "closed target"),
    ],
)
def test_analyze_and_interactive_check_the_game_setup_like_play(
    argv, blamed, monkeypatch, capsys
):
    """`analyze` and `interactive` refuse a bad game setup with the
    checks `play` makes, before any game starts."""
    assert run_cli(*argv, stdin_text="quit\n", monkeypatch=monkeypatch) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage error: {blamed} ")
    assert err.count("\n") == 1


# exit code and stdout SHA-256 of every demo
DEMO_OUTPUTS = {
    "one-main": (0, "7f108139cb6fb5de3fcdf5c3ca87f505acf7e71c808904569c8ad61188909293"),
    "omega-plus-one": (0, "b62af958db3170a51bc7692f95ad20d6a920b071f20839f1ed4ac862af742e6f"),
    "cantor": (0, "2e083dab5b95231ee1d76cd753b8a4c958cbe01af4e026c21556462a0b695d18"),
    "rationals": (0, "e086d456b00b89d363c659e2d9a4dd984a939d2001f21c3a174384010f750784"),
    "gdelta": (0, "b33e5b8a1885747627546a7edb7368506b44cbe46a59252c293d6f617407aeb3"),
    "alpha-minus": (0, "18bd66348bc92a04aadfce6d572752ef0a20d88c14b82b9f75ff23cc8d3e9736"),
    "inequivalence": (0, "963df2a9b9e9a15e80fcac9541fee7b0182aed4277bc0418b632708d8095a419"),
}


def test_demo_outputs_are_pinned(capsys):
    assert set(DEMO_OUTPUTS) == set(DEMOS)
    for name, pinned in DEMO_OUTPUTS.items():
        code = run_cli("demo", name)
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == pinned, name


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


def cover_game_two_ids():
    """Every id `catalog.TWO_IDS` lists, with each bracketed parameter
    spelled out, that the cover game builds a bot for."""
    ids = []
    for entry in catalog.TWO_IDS:
        name, _, options = entry.split()[0].partition("[")
        ids += [name] + [name + opt for opt in options.rstrip("]").split("|") if opt]
    playable = []
    for ident in ids:
        try:
            catalog.make_two(ident, closed(0, 1))
        except catalog.UnknownStrategy:
            continue
        playable.append(ident)
    return playable


def test_every_two_bot_ends_with_an_exit_code_not_a_traceback(monkeypatch, capsys):
    """Analyses and the REPL against each TWO bot: a bot's illegal move
    or unanswerable cover ends the command with its exit code."""
    ids = cover_game_two_ids()
    assert {"chain-puncture", "countable:triadic", "halving-omega-plus-1"} <= set(ids)
    commands = [("analyze", "core", "--depth", "2"), ("analyze", "escape", "--k", "1", "--search", "2")]
    commands += [("interactive", "--as", "one", "--ruleset", r) for r in ("discrete", "disjoint")]
    for ident in ids:
        for argv in commands:
            code = run_cli(
                *argv, "--two", ident,
                stdin_text="[0,3/4);(1/4,1]\nquit\n", monkeypatch=monkeypatch,
            )
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 64), (ident, argv, code)
            assert "Traceback" not in err, (ident, argv)
    # the disjoint-ruleset puncture bot makes an illegal discrete move
    assert run_cli("analyze", "core", "--two", "chain-puncture") == 2
    assert capsys.readouterr().err.startswith("illegal move: two NotDiscrete ")


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


def test_interactive_grid_cover_listing_is_pinned(monkeypatch, capsys):
    """The grid covers shown to a human TWO, rejections and the final
    witness, byte for byte."""
    stdin_text = (
        "(0,1/4)\n(0,1/4);(1/4,1/2)\n(1/4,3/8)\nempty\n(1/2,9/16)\n"
        "(1/2,17/32)\nempty\n(1/8,17/128)\n"
    )
    code = run_cli(
        "interactive", "--as", "two", "--one", "grid", "--innings", "6",
        stdin_text=stdin_text, monkeypatch=monkeypatch,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "inning 5: cover with 257 members:\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fa2c196bc044f654d76bcec3e92d37d88f9c79e16f3e52a76591a2cd4537bddb"
    )


def test_interactive_as_one_validates_cover(monkeypatch, capsys):
    stdin_text = "(0,1/2)\nempty\n[0,1/2];(1/4,1]\n[0,1/2);(1/4,1]\nquit\n"
    code = run_cli(
        "interactive", "--as", "one", "--two", "halving", "--innings", "2",
        stdin_text=stdin_text, monkeypatch=monkeypatch,
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "IncompleteCover" in out  # first cover misses part of [0,1]
    assert "rejected (EmptyCover)" in out
    assert "rejected (NotOpen)" in out  # [0,1/2] is closed at 1/2
    # each rejection prompts for inning 0 again
    assert out.count("inning 0, your cover> ") == 4
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


def test_interactive_running_measure_is_taken_on_a_closed_target(monkeypatch, capsys):
    # (0,1/8) leaves [0,0];[1/8,1/4] of the target, measure 1/8; the
    # ambient's uncovered part would measure 7/8
    code = run_cli(
        "interactive", "--as", "two", "--one", "avoid-fixed",
        "--target", "closed:[0,1/4]", "--innings", "1",
        stdin_text="(0,1/8)\n", monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "uncovered measure so far: 1/8\n" in capsys.readouterr().out


def test_interactive_halving_refuses_a_cover_missing_its_residual(monkeypatch, capsys):
    # (-1,1/2) holds the closed target [0,1/4], so the referee accepts it,
    # but halving's first residual piece is the whole ambient [0,1]
    code = run_cli(
        "interactive", "--as", "one", "--two", "halving", "--target", "closed:[0,1/4]",
        stdin_text="(-1,1/2)\n", monkeypatch=monkeypatch,
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "cover error: members do not cover the queried window [0,1]; "
        "uncovered part: [1/2,1]\n"
    )


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


MALFORMED_ARGV = [
    ("play", "--ruleset", "x"),
    ("play", "--ruleset"),
    ("play", "--bogus"),
    ("play", "--length", ""),
    ("play", "--length", "-1"),
    ("play", "--length", "w^w"),
    ("play", "--ambient", ""),
    ("play", "--ambient", "[0,0]"),
    ("play", "--ambient", "(0,1)"),
    ("play", "--ambient", "[a,1]"),
    ("play", "--target", ""),
    ("play", "--target", "nope"),
    ("play", "--target", "countablexyz"),
    ("play", "--target", "closed:"),
    ("play", "--target", "closed:[0,1/0]"),
    ("play", "--innings", "-3"),
    ("play", "--one", "main-gdelta:nope"),
    ("play", "--two", ""),
    ("play", "--two", "countable:nope"),
    ("bracket", "--lengths", "w,,1"),
    ("bracket", "--lengths", "w^w"),
    ("bracket", "--innings", "0"),
    ("bracket", "--target", "closed:[5,6]"),
    ("bracket", "--target", "cantor:x"),
    ("check", "--seed", "x"),
    ("check", "--cases", "0"),
    ("check", "--suite", ""),
    ("analyze", "bogus"),
    ("analyze", "core"),
    ("analyze", "core", "--two", "nope"),
    ("analyze", "escape", "--two", "halving", "--witness", "1/0"),
    ("analyze", "escape", "--two", "halving", "--k", "x"),
    ("demo",),
    ("demo", "nope"),
    ("demo", "cantor", "extra"),
    ("interactive", "--as", "three"),
    ("interactive", "--as", "two", "--innings", "x"),
    ("interactive", "--as", "one", "--two", "nope"),
    (),
    ("--help-me",),
]

MALFORMED_CONFIGS = [
    ("play", b"ruleset disjoint\n"),
    ("play", b"\xff\xfe\x00\n"),
    ("play", b"length = spam\n"),
    ("play", b"ruleset = \n"),
    ("bracket", b"as = two\n"),
    ("interactive", b"as = three\n"),
]

MALFORMED_STDIN = [
    (("interactive", "--as", "two", "--one", "grid", "--innings", "1"), "(0,1\n[1,0]\n;;\n"),
    (("interactive", "--as", "one", "--two", "halving", "--innings", "1"), "((\n[0,1/0]\n"),
]


def test_malformed_input_sweep_ends_with_an_exit_code_not_a_traceback(tmp_path):
    """Malformed flags, values, config files and interactive lines for
    every subcommand: each run ends with a documented exit code, and
    none prints a traceback."""
    runs = [(argv, "") for argv in MALFORMED_ARGV] + MALFORMED_STDIN
    for k, (command, body) in enumerate(MALFORMED_CONFIGS):
        cfg = tmp_path / f"bad{k}.cfg"
        cfg.write_bytes(body)
        runs.append(((command, "--config", str(cfg)), ""))
    runs.append((("play", "--config", str(tmp_path)), ""))  # a directory
    for argv, stdin_text in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "intervalgames", *argv],
            capture_output=True, text=True, input=stdin_text, timeout=60,
            env={**os.environ, "INTERVALGAMES_OUT": str(tmp_path)},
        )
        assert proc.returncode in {0, 2, 3, 64}, (argv, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)


@pytest.mark.parametrize("kind", ["countable", "gdelta"])
def test_an_empty_enumeration_name_means_rationals(tmp_path, kind):
    """`--target countable:` and `--target gdelta:` play the `rationals`
    enumeration, exactly as when it is named."""
    outs = []
    for target in (f"{kind}:", f"{kind}:rationals"):
        proc = run_module(
            "play", "--length", "2", "--innings", "2", "--target", target,
            "--json", str(tmp_path / "t.jsonl"),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((proc.stdout, (tmp_path / "t.jsonl").read_bytes()))
    assert f"target={kind}:rationals " in outs[0][0]
    assert outs[0] == outs[1]
