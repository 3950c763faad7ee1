"""Command-line interface: matches, demos, analyses, checks, and a REPL.

Exit codes: 0 on success, 2 when a strategy made an illegal move, 3 when
an internal invariant was falsified or a strategy could not answer a
legal cover, 64 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction as F
from pathlib import Path

from . import catalog, checks
from .analyzer import (
    EscapeCertificate,
    dense_discrete_witness,
    find_escape,
    strategy_core,
    verify_escape,
)
from .cantor import CantorSpec
from .covers import Cover, CoverError
from .engine import (
    GameConfig,
    IllegalMove,
    TargetSpec,
    length_bracket_report,
    play,
    referee_step,
    replay_families_under_ruleset,
    validate_cover,
)
from .errors import InputError, InvariantViolation, ProtocolError
from .ordinals import InningSchedule, Ordinal, parse_ordinal, reduced_length
from .sequences import enumeration
from .sets import (
    RSet,
    closed,
    is_discrete,
    parse_interval,
    parse_rational,
    parse_rset,
    union_all,
)
from .two_strategies import cantor_fattening_level, cantor_one_shot

EXIT_OK = 0
EXIT_ILLEGAL = 2
EXIT_INVARIANT = 3
EXIT_USAGE = 64

AMBIENT = closed(0, 1)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _out_dir() -> Path:
    return Path(os.environ.get("INTERVALGAMES_OUT", "."))


def _int_arg(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"--{name} must be an integer, not {text!r}") from None


def _check(label: str, ok: bool) -> bool:
    print(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


# --- play ----------------------------------------------------------------------


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read config file {path!r}: {reason}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _ruleset(text: str) -> str:
    return {"d": "discrete", "c": "disjoint"}.get(text, text)


def _game_config(args) -> GameConfig:
    return GameConfig(
        ruleset=_ruleset(args.ruleset),
        length=parse_ordinal(args.length),
        ambient=parse_interval(args.ambient),
        target=TargetSpec.parse(args.target),
        one=args.one,
        two=args.two,
        schedule=InningSchedule(main_budget=_int_arg("innings", args.innings)),
    )


def cmd_play(args) -> int:
    config = _game_config(args)
    transcript = play(config)
    out_path = Path(args.json) if args.json else _out_dir() / "transcript.jsonl"
    try:
        transcript.write_jsonl(out_path)
    except OSError as exc:
        raise InputError(f"cannot write transcript {str(out_path)!r}: {exc.strerror or exc}") from None
    print(f"game: {config.describe()}")
    print(f"verdict: {transcript.verdict.outcome}")
    cert = transcript.verdict.certificate
    print(f"certificate: {json.dumps(cert, sort_keys=True)}")
    print(f"transcript: {out_path} ({len(transcript.records)} innings)")
    return transcript.exit_code


# --- demos ---------------------------------------------------------------------


def _match(ruleset, length, one, two, target=None, budget=8):
    return play(
        GameConfig(
            ruleset=ruleset,
            length=parse_ordinal(length),
            ambient=AMBIENT,
            target=target or TargetSpec.full(),
            one=one,
            two=two,
            schedule=InningSchedule(main_budget=budget),
        )
    )


def demo_one_main() -> bool:
    print("claim: on [0,1] the cover picker wins every length-w play,")
    print("       certified by nested closures around an uncovered point")
    ok = True
    for two_id in catalog.STANDARD_TWO_CATALOG:
        t = _match("discrete", "w", "main-compact", two_id, budget=25)
        cert = t.verdict.certificate
        ok &= _check(
            f"vs two:{two_id}: {t.verdict.outcome}, "
            f"uncovered open {cert.get('uncovered_open', '-')}",
            t.verdict.outcome == "one-wins-certified",
        )
    return ok


def demo_omega_plus_one() -> bool:
    print("claim: the covering player wins on [0,1] in w+1 innings:")
    print("       halve forever, then fatten the residual after the limit")
    ok = True
    for one_id in ("grid", "avoid-fixed"):
        t = _match("discrete", "w+1", one_id, "halving-omega-plus-1", budget=12)
        union = union_all([m for r in t.records for m in r.family.members])
        ok &= _check(
            f"vs one:{one_id}: {t.verdict.outcome}, union == [0,1]",
            t.verdict.outcome == "two-wins-covered" and union == RSet((AMBIENT,)),
        )
        covered = RSet.empty()
        halving = True
        main = [r for r in t.records if str(r.label.ordinal) != "w"]
        for n, rec in enumerate(main):
            covered = covered.union(union_all(list(rec.family.members)))
            halving &= RSet((AMBIENT,)).subtract(covered).measure() == F(1, 2 ** (n + 1))
        ok &= _check("residual measure is exactly 2^-n after inning n", halving)
    return ok


def demo_cantor() -> bool:
    print("claim: a closed middle-thirds set is covered by one discrete move")
    spec = CantorSpec(AMBIENT)
    cover = Cover((parse_rset("(-1/8,1/2)"), parse_rset("(1/4,9/8)")))
    level = cantor_fattening_level(cover, spec)
    fam = cantor_one_shot(cover, spec)
    ok = _check(
        f"worked cover: level {level}, {len(fam.members)} fattened pieces, "
        f"closure gap {fam.min_gap}",
        level == 3 and len(fam.members) == 8 and fam.min_gap == F(1, 81),
    )
    ok &= _check(
        "one-shot family covers every construction point",
        spec.uncovered_point(fam.union(), RSet((AMBIENT,))) is None,
    )
    for one_id in ("grid", "avoid-fixed", "main-compact"):
        t = _match("discrete", "1", one_id, "cantor-oneshot", TargetSpec.cantor())
        ok &= _check(
            f"one-inning game vs one:{one_id}: {t.verdict.outcome}",
            t.verdict.outcome == "two-wins-covered",
        )
    return ok


def demo_rationals() -> bool:
    print("claim: the rationals are covered point by point across w innings,")
    print("       yet no single discrete family covers them")
    ok = True
    enum = enumeration("rationals")
    for one_id in ("grid", "avoid-fixed"):
        t = _match(
            "discrete", "w", one_id, "countable",
            TargetSpec.countable("rationals"), budget=10,
        )
        union = union_all([m for r in t.records for m in r.family.members])
        pts_ok = all(union.contains(enum.point(k)) for k in range(10))
        ok &= _check(
            f"vs one:{one_id}: {t.verdict.outcome}; q_0..q_9 covered",
            t.verdict.outcome == "two-wins-covered" and pts_ok,
        )
    one = catalog.make_one("avoid-fixed", AMBIENT)
    cover = one.next_cover()
    for two_id in catalog.STANDARD_TWO_CATALOG:
        bot = catalog.make_two(two_id, AMBIENT)
        fam = is_discrete(bot.respond(0, cover))
        if not fam.members:
            ok &= _check(f"one-shot by two:{two_id}: empty family misses all", True)
            continue
        w = dense_discrete_witness(fam, AMBIENT)
        q = w.rational()
        ok &= _check(
            f"one-shot by two:{two_id}: uncovered rational {q}",
            not fam.union().contains(q),
        )
    return ok


def demo_gdelta() -> bool:
    print("claim: against a dense G-delta target (delete one rational per")
    print("       inning) the cover picker still certifies a win")
    ok = True
    for two_id in ("halving", "countable"):
        t = _match(
            "discrete", "w", "main-gdelta", two_id,
            TargetSpec.gdelta("rationals"), budget=12,
        )
        cert = t.verdict.certificate
        avoided = cert.get("avoided_points", [])
        ok &= _check(
            f"vs two:{two_id}: {t.verdict.outcome}; avoided {len(avoided)} deleted points",
            t.verdict.outcome == "one-wins-certified" and len(avoided) == 12,
        )
    return ok


def demo_alpha_minus() -> bool:
    print("claim: an infinite winning length collapses to its reduced form")
    rows = ["w*2", "w^2*1", "w+5", "w", "w^2*3+w*2", "w*3+7"]
    ok = True
    for text in rows:
        alpha = parse_ordinal(text)
        red = reduced_length(alpha)
        stable = red if red.is_finite else reduced_length(red)
        ok &= _check(
            f"{str(alpha):>10} -> {red}",
            stable == red and red <= alpha,
        )
    return ok


def demo_inequivalence() -> bool:
    print("claim: the disjoint and discrete refinement games differ on [0,1]:")
    print("       the same two-inning plan wins one and is illegal in the other,")
    print("       while the discrete game is won by the cover picker at length w")
    t = _match("disjoint", "2", "grid", "chain-puncture")
    union = union_all([m for r in t.records for m in r.family.members])
    ok = _check(
        f"disjoint ruleset, length 2: {t.verdict.outcome} in {len(t.records)} innings",
        t.verdict.outcome == "two-wins-covered"
        and len(t.records) == 2
        and union == RSet((AMBIENT,)),
    )
    outcomes = replay_families_under_ruleset(t, "discrete")
    ok &= _check(
        f"same first family under discrete rules: {outcomes[0]}",
        outcomes[0] == "NotDiscrete",
    )
    forfeit = _match("discrete", "2", "grid", "chain-puncture")
    ok &= _check(
        f"discrete ruleset, length 2: {forfeit.verdict.outcome} "
        f"({forfeit.verdict.certificate.get('rejection')})",
        forfeit.verdict.outcome == "one-wins-forfeit",
    )
    for two_id in catalog.STANDARD_TWO_CATALOG:
        t = _match("discrete", "w", "main-compact", two_id, budget=25)
        ok &= _check(
            f"length-w discrete vs two:{two_id}: {t.verdict.outcome}",
            t.verdict.outcome == "one-wins-certified",
        )
    return ok


DEMOS = {
    "one-main": demo_one_main,
    "omega-plus-one": demo_omega_plus_one,
    "cantor": demo_cantor,
    "rationals": demo_rationals,
    "gdelta": demo_gdelta,
    "alpha-minus": demo_alpha_minus,
    "inequivalence": demo_inequivalence,
}


def cmd_demo(args) -> int:
    if args.name not in DEMOS:
        raise InputError(f"unknown demo {args.name!r}; known: {sorted(DEMOS)}")
    print(f"demo {args.name}")
    ok = DEMOS[args.name]()
    print("result:", "all checks passed" if ok else "CHECK FAILED")
    return EXIT_OK if ok else EXIT_INVARIANT


# --- analyze -------------------------------------------------------------------


def _two_factory(ident: str, ambient):
    def factory():
        return catalog.make_two(ident, ambient)

    return factory


def cmd_analyze(args) -> int:
    # the analyzed game: TWO's discrete replies to grid covers of the ambient
    ambient = GameConfig(
        ruleset="discrete",
        length=Ordinal.omega(),
        ambient=parse_interval(args.ambient),
        target=TargetSpec.full(),
        one="grid",
        two=args.two,
    ).ambient
    factory = _two_factory(args.two, ambient)
    if args.what == "core":
        tau = tuple(_int_arg("tau", x) for x in args.tau.split(",")) if args.tau else ()
        core = strategy_core(factory, tau, _int_arg("depth", args.depth), ambient)
        print(json.dumps(core.to_json(), sort_keys=True))
        return EXIT_OK
    if args.what == "escape":
        result = find_escape(
            factory,
            parse_rational(args.witness),
            _int_arg("k", args.k),
            _int_arg("search", args.search),
            ambient,
        )
        payload = result.to_json()
        if isinstance(result, EscapeCertificate):
            payload["revalidates"] = verify_escape(factory, result, ambient)
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    raise InputError(f"unknown analysis {args.what!r}")


# --- check ---------------------------------------------------------------------


def cmd_check(args) -> int:
    results = checks.run_suites(
        _int_arg("seed", args.seed), _int_arg("cases", args.cases), args.suite
    )
    failed = False
    for r in results:
        _check(f"{r.name} ({r.cases} cases){': ' + r.detail if r.detail else ''}", r.ok)
        failed |= not r.ok
    return EXIT_INVARIANT if failed else EXIT_OK


# --- interactive -----------------------------------------------------------------


GRAMMAR_HINT = (
    "enter a family as `;`-separated intervals, one member each, e.g. "
    "`(1/10,2/10);(3/10,4/10)`; endpoints are rationals `p/q`; "
    "`empty` plays the empty family; `quit` resigns"
)


def _parse_family(line: str) -> list[RSet]:
    text = line.strip()
    if text in ("empty", ""):
        return []
    return [RSet((parse_interval(part),)) for part in text.split(";")]


def _prompt_until_accepted(stdin, text: str, accept):
    """Prompt with `text` until `accept(line)` returns; None when the
    human resigns (`quit` or end of input).  A line that does not parse
    gets the grammar hint, a move the referee rejects its witness."""
    while True:
        print(text, end="", flush=True)
        line = stdin.readline()
        if not line or line.strip() == "quit":
            print("resigned")
            return None
        try:
            return accept(line)
        except ValueError as exc:
            print(f"  cannot parse: {exc}")
            print(f"  {GRAMMAR_HINT}")
        except IllegalMove as exc:
            print(f"  rejected ({exc.kind}): {exc.detail}")


def cmd_interactive(args, stdin=None) -> int:
    stdin = stdin or sys.stdin
    innings = _int_arg("innings", args.innings)
    if innings < 1:
        raise InputError("--innings must be >= 1")
    config = GameConfig(
        ruleset=_ruleset(args.ruleset),
        length=Ordinal.of(innings),
        ambient=parse_interval(args.ambient),
        target=TargetSpec.parse(args.target),
        one=args.one,
        two=args.two,
    )
    ruleset, ambient, target = config.ruleset, config.ambient, config.target
    human_side = args.as_side
    if human_side not in ("one", "two"):
        raise InputError("interactive needs --as one or --as two")
    bot = (
        catalog.make_one(args.one, ambient, target)
        if human_side == "two"
        else catalog.make_two(args.two, ambient, target)
    )
    print(f"interactive {ruleset} game on {ambient}, {innings} innings shown")
    print(GRAMMAR_HINT)
    covered = RSet.empty()
    box = target.measured_set(ambient)
    for inning in range(innings):
        if human_side == "two":
            cover = validate_cover(bot.next_cover(), target, ambient)
            texts = cover.member_texts()
            print(f"inning {inning}: cover with {len(texts)} members:")
            for i, text in enumerate(texts):
                print(f"  [{i}] {text}")
            checked = _prompt_until_accepted(
                stdin,
                "your family> ",
                lambda line: referee_step(ruleset, cover, _parse_family(line), ambient),
            )
            if checked is None:
                return EXIT_OK
            covered = covered.union(union_all(list(checked.members)))
            bot.observe(checked.members)
        else:
            cover = _prompt_until_accepted(
                stdin,
                f"inning {inning}, your cover> ",
                lambda line: validate_cover(Cover(_parse_family(line)), target, ambient),
            )
            if cover is None:
                return EXIT_OK
            family = bot.respond(inning, cover)
            checked = referee_step(ruleset, cover, family, ambient)
            print(f"  opponent family ({len(checked.members)} members):")
            for m in checked.members:
                print(f"    {m}")
            covered = covered.union(union_all(list(checked.members)))
        print(f"  uncovered measure so far: {box.subtract(covered).measure()}")
        missed = target.uncovered(covered, ambient, materialized=inning + 1)
        if missed is None:
            print("target covered: the covering player wins")
            return EXIT_OK
    witness = "; ".join(f"{key}: {val}" for key, val in missed().items())
    print(f"truncated after {innings} innings; {witness}")
    return EXIT_OK


# --- wiring --------------------------------------------------------------------


def build_parser() -> Parser:
    p = Parser(prog="intervalgames", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q):
        q.add_argument("--ambient", default="[0,1]")
        q.add_argument("--config", default=None, help="key=value defaults file")

    play_p = sub.add_parser("play", help="run one match between two bots")
    add_common(play_p)
    play_p.add_argument("--ruleset", default="discrete")
    play_p.add_argument("--length", default="w")
    play_p.add_argument("--one", default="grid")
    play_p.add_argument("--two", default="halving")
    play_p.add_argument("--target", default="full")
    play_p.add_argument("--innings", default="8", help="budget per limit block")
    play_p.add_argument("--json", default=None, help="transcript output path")

    demo_p = sub.add_parser("demo", help="scripted scenario with checked claims")
    demo_p.add_argument("name", help=f"one of {sorted(DEMOS)}")

    ana_p = sub.add_parser("analyze", help="strategy cores and escape searches")
    ana_p.add_argument("what", choices=["core", "escape"])
    ana_p.add_argument("--two", required=True)
    ana_p.add_argument("--ambient", default="[0,1]")
    ana_p.add_argument("--tau", default="", help="comma-separated grid indices")
    ana_p.add_argument("--depth", default="8")
    ana_p.add_argument("--witness", default="1/2")
    ana_p.add_argument("--k", default="5")
    ana_p.add_argument("--search", default="12")

    chk_p = sub.add_parser("check", help="run seeded invariant suites")
    chk_p.add_argument("--seed", default="20240817")
    chk_p.add_argument("--cases", default="100")
    chk_p.add_argument("--suite", default=None, help=f"one of {sorted(checks.ALL_SUITES)}")

    int_p = sub.add_parser("interactive", help="play one side at the terminal")
    add_common(int_p)
    int_p.add_argument("--as", dest="as_side", choices=["one", "two"])
    int_p.add_argument("--ruleset", default="discrete")
    int_p.add_argument("--one", default="grid")
    int_p.add_argument("--two", default="halving")
    int_p.add_argument("--target", default="full")
    int_p.add_argument("--innings", default="6")

    braket_p = sub.add_parser(
        "bracket", help="experimental winning-length bracket over the catalogs"
    )
    braket_p.add_argument("--lengths", default="1,w,w+1")
    braket_p.add_argument("--innings", default="6")
    braket_p.add_argument("--target", default="full")
    p.commands = sub.choices  # subcommand name -> its parser
    return p


def _apply_config_file(parser: Parser, args, argv: list[str]):
    """Parse `argv` again with the --config file's values as the
    subcommand's defaults, so explicit flags win.  A key names a flag of
    the subcommand or its destination (`as` or `as_side` for `--as`);
    any other key is an input error."""
    if not getattr(args, "config", None):
        return args
    sub = parser.commands[args.command]
    dests = {}
    for action in sub._actions:
        for opt in action.option_strings:
            if opt.startswith("--") and action.dest != "help":
                dests[opt[2:].replace("-", "_")] = dests[action.dest] = action.dest
    values = _read_config_file(args.config)
    for key in values:
        if key not in dests:
            raise InputError(f"config key {key!r} names no flag of {args.command!r}")
    sub.set_defaults(**{dests[key]: val for key, val in values.items()})
    return parser.parse_args(argv)


def cmd_bracket(args) -> int:
    lengths = [parse_ordinal(x) for x in args.lengths.split(",")]
    report = length_bracket_report(
        AMBIENT,
        TargetSpec.parse(args.target),
        one_ids=catalog.STANDARD_ONE_CATALOG,
        two_ids=catalog.STANDARD_TWO_CATALOG + ("halving-omega-plus-1",),
        lengths=lengths,
        schedule=InningSchedule(main_budget=_int_arg("innings", args.innings)),
    )
    print(json.dumps(report, sort_keys=True, indent=1))
    return EXIT_OK


COMMANDS = {
    "play": cmd_play,
    "demo": cmd_demo,
    "analyze": cmd_analyze,
    "check": cmd_check,
    "interactive": cmd_interactive,
    "bracket": cmd_bracket,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config_file(parser, parser.parse_args(argv), argv)
        return COMMANDS[args.command](args)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvariantViolation, ProtocolError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except CoverError as exc:  # a strategy cannot answer a legal cover
        print(f"cover error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except IllegalMove as exc:  # a bot's move outside a refereed match
        print(f"illegal move: {exc.side} {exc.kind} {exc.detail}", file=sys.stderr)
        return EXIT_ILLEGAL


if __name__ == "__main__":
    sys.exit(main())
