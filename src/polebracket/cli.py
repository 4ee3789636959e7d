"""Command line front end.

One computation per invocation: surface report, state dump, bracket values,
move rewriting, random diagram generation, or the verification battery.
Input codes come from --input as inline .tgc text (";" separates components
inline), "-" for stdin, or a file path.  Text that parses as a code is read
inline even when a file of that name exists; give such a file as ./NAME.
Other text with a directory part is a path, so a missing file is unreadable.
Output is byte-deterministic for fixed inputs, seed, and worker count.

Each subcommand takes only the options it reads (info also takes --workers
and ignores it); any other option is a usage error.  Exit codes: 0 success, 1 usage (an unknown subcommand or
option, a missing or out-of-range value, a refused state sum), 2 input
parse/validation or rejected move, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .brackets import double_bracket, normalized, surface_pole_bracket
from .codes import CodeError, parse_code, serialize
from .moves import DIRECTIONS, KINDS, MoveError, MoveSpec, apply_move
from .states import _engine, enumerate_states, state_report
from .surfaces import build_ribbon, cap_boundaries
from .verify import corpus_twisted, run_battery

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3

_STATE_GUARD = 24  # default refusal bound for 2^c state sums


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # input parsing, so usage problems exit 1 instead
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# every option's flags and settings, under the name the table below uses
_OPTIONS = {
    "-i": (("--input", "-i"), {"help": ".tgc path, '-' for stdin, or inline code"}),
    "--json": (("--json",), {"action": "store_true", "help": "emit JSON instead of text"}),
    "--dump": (("--dump",), {"action": "store_true", "help": "full per-curve detail in state dumps"}),
    "--workers": (("--workers",), {"type": int, "default": 1}),
    "--max-crossings": (
        ("--max-crossings",),
        {
            "type": int,
            "default": _STATE_GUARD,
            "help": f"refuse state sums beyond this many crossings (default {_STATE_GUARD})",
        },
    ),
    "--seed": (("--seed",), {"type": int, "default": 0}),
    "--count": (("--count",), {"type": int, "default": 1}),
    "--kind": (("--kind",), {"required": True, "choices": KINDS}),
    "--dir": (("--dir",), {"required": True, "choices": DIRECTIONS}),
    "--site": (("--site",), {"default": "", "help": "comma-separated integers"}),
    "--variant": (("--variant",), {"type": int, "default": 0}),
}

# each subcommand's blurb and the options `main` reads for it; `info` reads
# no --workers but takes it, because the bench harness passes --workers with
# every code it feeds in
_COMMANDS = {
    "info": ("closed-surface report of the code's realization", "-i --json --workers"),
    "states": ("dump all splice states with curve classifications", "-i --json --dump --max-crossings"),
    "bracket": ("surface pole bracket, one coefficient per curve class", "-i --json --workers --max-crossings"),
    "dbracket": ("double bracket in A, M, d_i", "-i --json --workers --max-crossings"),
    "invariant": ("normalized invariant R = (-A)^(-3w) * double bracket", "-i --json --workers --max-crossings"),
    "move": ("apply one extended Reidemeister move and print the code", "-i --kind --dir --site --variant"),
    "check": ("run the verification battery (corpus properties)", "--seed --count"),
    "random": ("emit seeded random diagrams", "--seed --count --max-crossings"),
}


@cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process and shared by
    every call: parsing reads it and leaves it unchanged, and each call gets
    a fresh namespace.  A subcommand takes only the options it reads."""
    top = _Parser(prog="polebracket", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (blurb, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        for option in options.split():
            flags, kwargs = _OPTIONS[option]
            if name == "random" and option == "--max-crossings":
                # no state sum here: the option caps the diagrams' size
                kwargs = dict(kwargs, help="give each diagram at most min(8, MAX_CROSSINGS) crossings")
            p.add_argument(*flags, **kwargs)
    return top


def _read_code(args, err):
    if not args.input:
        err(EXIT_USAGE, "an input code is required (--input)")
    src = args.input
    if src == "-":
        text = sys.stdin.read()
    else:
        # text that parses as a code is inline even beside a file of that
        # name; other text is a path if it names a file or has a directory part
        try:
            return parse_code(src.replace(";", "\n"))
        except CodeError as e:
            if not (os.path.isfile(src) or os.path.dirname(src)):
                err(EXIT_PARSE, str(e))
        try:
            with open(src, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (UnicodeDecodeError, OSError) as e:
            err(EXIT_PARSE, f"cannot read {src}: {e}")
    try:
        return parse_code(text)
    except CodeError as e:
        err(EXIT_PARSE, str(e))


def _guard(code, args, err):
    c = len(code.crossing_ids)
    if c <= args.max_crossings:
        return
    # one process, Python 3.11, 2 vCPUs: `normalized` of kink-free
    # random_diagram(s, c, 2), four seeds per c, and `states` of three codes
    if args.command == "states":
        # the walker reads every state, kinks too
        bits, folded, per_s = c, "", 79e-6
        cost = ("25-79 us per state (c = 12 to 16), printed as it goes;"
                " peak memory was 19-26 MB")
    else:
        # the sum traces only the through splice of each R1 kink it folds
        kinks = len(_engine(cap_boundaries(build_ribbon(code))).kinks)
        bits, per_s = c - kinks, 6e-6
        folded = f" less {kinks} R1 kinks summed in closed form" if kinks else ""
        cost = ("4-6 us per traced state (c = 16 to 20); peak memory was"
                " 22-24 MB at c = 16, 24-35 MB at c = 18 and 41-64 MB at c = 20")
    if bits > args.max_crossings:
        minutes = (1 << bits) * per_s / 60
        err(
            EXIT_USAGE,
            f"{c} crossings{folded} means 2^{bits} traced states, about {minutes:.0f} min"
            f" in one process at the measured {cost}; raise --max-crossings to force this",
        )


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_json(obj) -> None:
    print(_dumps(obj))


def _poly_out(value, as_json: bool) -> None:
    if as_json:
        _emit_json(value.to_json_terms())
    else:
        print(value.to_text())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def err(code_num, message):
        print(f"polebracket: {message}", file=sys.stderr)
        raise SystemExit(code_num)

    # each range check runs only where the subcommand has the option
    for flag, least, rule in (
        ("--workers", 1, "be at least 1"),
        ("--count", 0, "not be negative"),
        ("--max-crossings", 0, "not be negative"),
    ):
        value = getattr(args, flag[2:].replace("-", "_"), least)
        if value < least:
            err(EXIT_USAGE, f"{flag} must {rule}, got {value}")

    cmd = args.command

    if cmd == "random":
        codes = corpus_twisted(args.seed, args.count, min(8, args.max_crossings))
        print("\n".join(map(serialize, codes)), end="")
        return 0

    if cmd == "check":
        results = run_battery(args.seed, args.count)
        failed = False
        for label, checked, bad in results:
            ok = not bad
            failed = failed or not ok
            print(f"{'PASS' if ok else 'FAIL'}  {label} ({checked} checked, {len(bad)} failures)")
        if failed:
            return EXIT_VERIFY
        print("all checks passed")
        return 0

    code = _read_code(args, err)

    if cmd == "move":
        try:
            site = tuple(int(x) for x in args.site.split(",")) if args.site else ()
        except ValueError:
            err(EXIT_USAGE, f"bad --site {args.site!r}")
        try:
            moved = apply_move(code, MoveSpec(args.kind, args.dir, site, args.variant))
        except MoveError as e:
            err(EXIT_PARSE, f"move rejected: {e}")
        print(serialize(moved), end="")
        return 0

    if cmd == "info":
        F = cap_boundaries(build_ribbon(code))
        rep = F.report()
        if args.json:
            _emit_json(rep)
        else:
            print(f"euler {rep['euler']}")
            print(f"orientable {str(rep['orientable']).lower()}")
            print(f"h1_rank {rep['h1_rank']}")
            for p in rep["pieces"]:
                kind = f"genus {p['genus']}" if p["orientable"] else f"crosscaps {p['crosscaps']}"
                print(f"piece orientable={str(p['orientable']).lower()} {kind}")
        return 0

    _guard(code, args, err)

    if cmd == "states":
        F = cap_boundaries(build_ribbon(code))
        reports = (state_report(F, s) for s in enumerate_states(F))
        if args.json:
            # the bytes of _emit_json(list(reports)), written one report at a time
            sys.stdout.write("[")
            for i, r in enumerate(reports):
                if i:
                    sys.stdout.write(",")
                sys.stdout.write(_dumps(r))
            sys.stdout.write("]\n")
        else:
            for r in reports:
                curves = r["curves"]
                if args.dump:
                    detail = " ".join(
                        f"[poles={c['poles']} idx={c['index']} iness={int(c['inessential'])}"
                        f" sep={int(c['separating'])} mob={int(c['mobius'])}"
                        f" hom={''.join(map(str, c['hom']))}]"
                        for c in curves
                    )
                else:
                    detail = (
                        f"curves={len(curves)}"
                        f" iness={sum(1 for c in curves if c['inessential'])}"
                        f" idx={sorted(c['index'] for c in curves)}"
                    )
                print(f"state {r['mask']:>4} natural {r['natural']:>3} {detail}")
        return 0

    if cmd == "bracket":
        value = surface_pole_bracket(code, workers=args.workers)
        if args.json:
            _emit_json(value.to_json())
        else:
            print(value.to_text())
        return 0

    if cmd == "dbracket":
        _poly_out(double_bracket(code, workers=args.workers), args.json)
        return 0

    if cmd == "invariant":
        _poly_out(normalized(code, workers=args.workers), args.json)
        return 0

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
