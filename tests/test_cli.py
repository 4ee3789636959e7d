import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polebracket.cli import main
from polebracket.codes import serialize
from polebracket.verify import braid_closure

from test_brackets import HIGH_GENUS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariant_one_bar_loop(capsys):
    code, out, _ = run(capsys, "invariant", "-i", "B")
    assert code == 0
    assert out.strip() == "M"


def test_info_virtual_trefoil_json(capsys):
    code, out, _ = run(capsys, "info", "-i", "O1+ O2+ U1+ U2+", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["euler"] == 0 and rep["orientable"] is True
    assert rep["pieces"] == [{"genus": 1, "orientable": True}]


def test_info_text_projective_plane(capsys):
    code, out, _ = run(capsys, "info", "-i", "B")
    assert code == 0
    assert "orientable false" in out
    assert "crosscaps 1" in out


def test_dbracket_and_bracket(capsys):
    code, out, _ = run(capsys, "dbracket", "-i", "O1+ O2+ U1+ U2+")
    assert code == 0 and "d_1" in out
    code, out, _ = run(capsys, "bracket", "-i", "O1+ U1+", "--json")
    assert code == 0
    assert json.loads(out)[0]["curves"] == []


def test_states_dump(capsys):
    code, out, _ = run(capsys, "states", "-i", "O1+ U1+", "--dump")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("state" in ln for ln in lines)


def test_move_subcommand(capsys):
    code, out, _ = run(capsys, "move", "-i", "EMPTY", "--kind", "R2", "--dir", "insert", "--site", "0,0")
    assert code == 0
    assert out == "U1+ U2- O2- O1+\n"


def test_move_rejection_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "move", "-i", "EMPTY", "--kind", "R1+", "--dir", "delete", "--site", "0,0")
    assert exc.value.code == 2


def test_move_round_trip(capsys):
    kink = ("--kind", "R1+", "--site", "0,1")
    code, kinked, _ = run(capsys, "move", "-i", "O1+ U2+ U1+ O2+", "--dir", "insert", *kink)
    assert code == 0
    code, out, _ = run(capsys, "move", "-i", kinked, "--dir", "delete", *kink)
    assert code == 0
    assert out == "O1+ U2+ U1+ O2+\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--kind", "R2", "--dir", "insert", "--site", "0,0", "--variant", "9"),
         "R2 insert needs a variant in 0..3, not 9"),
        (("--kind", "R1+", "--dir", "insert", "--site", "0,0", "--variant", "-3"),
         "R1+ insert needs a variant in 0..1, not -3"),
        (("--kind", "T1", "--dir", "insert", "--site", "0,0", "--variant", "5"),
         "T1 insert needs a variant in 0..0, not 5"),
        (("--kind", "T2", "--dir", "rewrite", "--site", "4,4,4"), "T2 needs a site of 0 integers"),
    ],
)
def test_move_rejects_variants_and_sites_it_does_not_take(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "move", "-i", "O1+ U1+", *argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"polebracket: move rejected: {message}\n"


def test_move_kind_and_direction_choices(capsys):
    # the choices come from the move table, in the order they always had
    with pytest.raises(SystemExit) as exc:
        run(capsys, "move", "-i", "B", "--kind", "R9", "--dir", "insert")
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "argument --kind: invalid choice: 'R9' (choose from 'R1+', 'R1-', 'R2', 'R3', 'T1', 'T2', 'T3')\n"
    )
    with pytest.raises(SystemExit) as exc:
        run(capsys, "move", "-i", "B", "--kind", "R2", "--dir", "sideways")
    assert capsys.readouterr().err.endswith(
        "argument --dir: invalid choice: 'sideways' (choose from 'insert', 'delete', 'rewrite')\n"
    )


def test_parse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "invariant", "-i", "O1+")
    assert exc.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "frobnicate")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(capsys, "invariant")  # missing input
    assert exc.value.code == 1


def _no_folds(n):
    """O1+ .. On+ U2+ U1+ U3+ .. Un+: n >= 16 crossings, and no kink or
    bigon for a sum to fold."""
    return " ".join(f"O{i}+" for i in range(1, n + 1)) + " U2+ U1+ " + " ".join(f"U{i}+" for i in range(3, n + 1))


def test_state_guard_refuses_large(capsys):
    # 25 crossings would be 2^25 states
    with pytest.raises(SystemExit) as exc:
        run(capsys, "dbracket", "-i", _no_folds(25))
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "25 crossings means 2^25 traced states, about 3 min" in err
    assert "us per traced state" in err
    # info has no state sum and must not refuse
    code, _, _ = run(capsys, "info", "-i", _no_folds(25))
    assert code == 0
    # with U1+ .. U25+ in order, the wrap-around bands make an alternating
    # bigon, which the sum traces on one of its two bits
    toks = " ".join(f"O{i}+" for i in range(1, 26)) + " " + " ".join(f"U{i}+" for i in range(1, 26))
    with pytest.raises(SystemExit):
        run(capsys, "dbracket", "--max-crossings", "23", "-i", toks)
    assert ("25 crossings less 1 alternating bigons traced on half their splices"
            " means 2^24 traced states, about 2 min") in capsys.readouterr().err


def test_state_guard_prices_short_sums_in_seconds(capsys):
    # under a minute the estimate is in seconds, under a second it says so;
    # the 25-crossing refusal above keeps its minutes
    def refusal(*argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv, "--max-crossings", "1")
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and " min " not in err
        return err

    assert "2^2 traced states, under 1 s in one process" in refusal("states", "-i", "O1+ U1+ O2+ U2+")
    # the bar flips a band of the virtual trefoil's alternating bigon, so
    # nothing folds
    for cmd in ("bracket", "dbracket", "invariant"):
        assert "2^2 traced states, under 1 s in one process" in refusal(cmd, "-i", "O1+ O2+ B U1+ U2+")
    assert "22 crossings means 2^22 traced states, about 25 s in one process" in refusal("dbracket", "-i", _no_folds(22))
    toks = " ".join(f"O{i}+" for i in range(1, 17)) + " " + " ".join(f"U{i}+" for i in range(1, 17))
    assert "16 crossings means 2^16 traced states, about 5 s in one process" in refusal("states", "-i", toks)


def test_state_guard_prices_long_sums_in_days(capsys):
    # from a day the estimate is in whole days, and from 365 days it is
    # "more than a year"; a minute count that long would say little
    for n, took in ((34, "about 1 day in"), (40, "about 76 days in"), (43, "more than a year in")):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "invariant", "-i", _no_folds(n))
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and f"{n} crossings means 2^{n} traced states, {took} one process" in err, err


def test_state_guard_counts_folded_kinks(capsys):
    # 26 R1 kinks in a row: a sum folds every one of them and traces one
    # state, so the default guard lets it run; `states` walks all 2^26
    kinks = " ".join(f"O{i}+ U{i}+" for i in range(1, 27))
    code, out, _ = run(capsys, "invariant", "-i", kinks)
    assert code == 0 and out == "-A^2-A^-2\n"
    with pytest.raises(SystemExit) as exc:
        run(capsys, "states", "-i", kinks)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "26 crossings means 2^26 traced states" in err
    # with 3 of 5 crossings folded, the guard prices the 2 traced ones
    with pytest.raises(SystemExit) as exc:
        run(capsys, "dbracket", "--max-crossings", "1", "-i", "O1+ U1+ O2+ U2+ O3+ O4+ U3+ U4+ O5+ U5+")
    assert exc.value.code == 1
    assert "5 crossings less 3 R1 kinks summed in closed form means 2^2" in capsys.readouterr().err
    code, _, _ = run(capsys, "dbracket", "--max-crossings", "2", "-i", "O1+ U1+ O2+ U2+ O3+ O4+ U3+ U4+ O5+ U5+")
    assert code == 0


def test_eleven_hundred_kinks_sum_under_the_default_recursion_limit(capsys):
    # every kink folds, so the block's pass draws all 1,099 crossings above
    # 0 and the descent has one level; the fold reads delta^k rows up to
    # k = 1,100
    kinks = " ".join(f"O{i}+ U{i}+" for i in range(1, 1101))
    code, out, _ = run(capsys, "invariant", "-i", kinks)
    assert code == 0 and out == "-A^2-A^-2\n"


def test_state_guard_prices_folded_bigons(capsys):
    # an R2 poke O x O y U y U x inside a strand: a bigon on x and y with a
    # kink on y, which counts once.  Three pokes on the virtual trefoil and
    # a free kink: 9 crossings, less 1 kink and 3 bigons, leave 2^2 traced
    pokes = "O3+ O4- U4- U3+ O5- O6+ U6+ U5- O7+ O8- U8- U7+"
    text = f"O1+ {pokes} O2+ U1+ U2+ O9+ U9+"
    with pytest.raises(SystemExit) as exc:
        run(capsys, "invariant", "--max-crossings", "1", "-i", text)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert ("9 crossings less 1 R1 kinks summed in closed form and 3 R2 bigons"
            " traced on their through splices means 2^2 traced states") in err
    code, out, _ = run(capsys, "invariant", "--max-crossings", "2", "-i", text)
    assert code == 0 and out == run(capsys, "invariant", "-i", "O1+ O2+ U1+ U2+")[1]
    # the walker traces every state, so `states` prices all 9 crossings
    with pytest.raises(SystemExit):
        run(capsys, "states", "--max-crossings", "8", "-i", text)
    assert "9 crossings means 2^9 traced states" in capsys.readouterr().err
    # 26 pokes in a row: 52 crossings, each pair folded, so the default
    # guard lets the sum run, on one traced state
    chain = " ".join(f"O{2 * i + 1}+ O{2 * i + 2}- U{2 * i + 2}- U{2 * i + 1}+" for i in range(26))
    code, out, _ = run(capsys, "invariant", "-i", chain)
    assert code == 0 and out == "-A^2-A^-2\n"


def test_state_guard_prices_alternating_bigons(capsys):
    # the closure of sigma1^12: a twist region whose 12 crossings pair into
    # 6 disjoint alternating bigons, each traced on one of its two bits, so
    # the sum traces 2^6 states, one over a limit of 5
    for e in (1, -1):
        twist = serialize(braid_closure([(1, e)] * 12, 2)).replace("\n", ";")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "invariant", "--max-crossings", "5", "-i", twist)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert ("12 crossings less 6 alternating bigons traced on half their splices"
                " means 2^6 traced states, under 1 s") in err, err
        code, out, _ = run(capsys, "invariant", "--max-crossings", "6", "-i", twist)
        assert code == 0 and out


def test_inline_semicolon_components(capsys):
    code, out, _ = run(capsys, "info", "-i", "O1+ U1+;EMPTY", "--json")
    assert code == 0
    assert len(json.loads(out)["pieces"]) == 2


def test_random_deterministic(capsys):
    _, out1, _ = run(capsys, "random", "--seed", "7", "--count", "3")
    _, out2, _ = run(capsys, "random", "--seed", "7", "--count", "3")
    assert out1 == out2
    _, out3, _ = run(capsys, "random", "--seed", "8", "--count", "3")
    assert out1 != out3


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--seed", "5", "--count", "3"),
         "93809aa68585870e89804ba408cc2e483862ba2b377e6ead5513d0d39d16c6c9"),
        (("--seed", "7", "--count", "20", "--max-crossings", "3"),
         "11b77fa059a09843920edcf56244cd9d41f0fae58baa062f66d29beda55c4e90"),
        (("--seed", "1", "--count", "10", "--max-crossings", "0"),
         "2f05fcfe330c4f0ff2bcbe9e0216755876ce8f102614978720204330e6d60a4e"),
    ],
)
def test_random_output_bytes_are_pinned(capsys, argv, digest):
    # SHA-256 of `random` output as first recorded, with the default and
    # two lowered crossing bounds
    rc, out, _ = run(capsys, "random", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_random_shows_the_crossing_cap_in_effect():
    # `random` draws at most min(8, --max-crossings) crossings, so its
    # default is the 8 that applies, not the state guard of the sums
    from polebracket.cli import build_parser

    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert subparsers["random"].parse_args([]).max_crossings == 8
    assert subparsers["invariant"].parse_args([]).max_crossings == 24


def test_random_output_parses(capsys):
    from polebracket.codes import parse_code

    _, out, _ = run(capsys, "random", "--seed", "3", "--count", "4")
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 4
    for b in blocks:
        parse_code(b)


def test_worker_flag_identical_output(capsys):
    _, out1, _ = run(capsys, "invariant", "-i", "O1- U2- O3- U1- O2- U3-", "--workers", "1")
    _, out2, _ = run(capsys, "invariant", "-i", "O1- U2- O3- U1- O2- U3-", "--workers", "2")
    assert out1 == out2


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_agree_under_start_method(capsys, method):
    # a spawned or forkserver worker imports the package afresh rather than
    # inheriting the parent's memory (forkserver is Python 3.14's default on
    # Linux); CI's 6-crossing code, summed by three workers in a fresh
    # interpreter in development mode, prints the one-worker bytes
    import polebracket

    code = "O3- U1+ U6+ U2- O2- O1+ O4+ O5+ U3- U4+ U5+ B O6+ B"
    _, want, _ = run(capsys, "bracket", "--workers", "1", "-i", code)
    src = str(Path(polebracket.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = (
        "import multiprocessing, sys; multiprocessing.set_start_method(sys.argv[1]); "
        "from polebracket.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    fresh = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", script, method, "bracket", "--workers", "3", "-i", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, want, "")


def test_check_small_battery(capsys):
    code, out, _ = run(capsys, "check", "--seed", "1", "--count", "6")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 5


def test_check_battery_bytes_pinned(capsys):
    # the six lines CI compares for `check --seed 3 --count 6`, as first
    # recorded: 126 move sites over six twisted diagrams
    code, out, _ = run(capsys, "check", "--seed", "3", "--count", "6")
    assert code == 0
    assert out == (
        "PASS  move invariance of R (126 checked, 0 failures)\n"
        "PASS  essential curves never separate (295 checked, 0 failures)\n"
        "PASS  region pole balance (295 checked, 0 failures)\n"
        "PASS  specialization identity (15 checked, 0 failures)\n"
        "PASS  classical bracket oracle (9 checked, 0 failures)\n"
        "all checks passed\n"
    )


def test_non_ascii_digit_is_a_bad_token_and_leading_zeros_read(capsys):
    # int() reads U+0661 as 1; the parser does not, so the token is refused
    # with exit 2, and a leading zero names the same crossing
    with pytest.raises(SystemExit) as exc:
        run(capsys, "info", "-i", "O1+ U\u0661+")
    assert exc.value.code == 2
    assert capsys.readouterr().err == "polebracket: component 1, token 2: bad token 'U\u0661+'\n"
    _, padded, _ = run(capsys, "info", "-i", "O01+ U1+")
    _, plain, _ = run(capsys, "info", "-i", "O1+ U1+")
    assert padded == plain


def test_directory_input_is_parse_error(capsys, tmp_path):
    # a directory is not a code file, and its path is no code
    with pytest.raises(SystemExit) as exc:
        run(capsys, "invariant", "-i", str(tmp_path))
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_path_that_names_no_file_is_unreadable(capsys, tmp_path, monkeypatch):
    # text that is no code but has a directory part is read as a path, so a
    # missing file or a directory is reported as unreadable, not as a token
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    for path in ("./missing.tgc", "./adir"):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "invariant", "-i", path)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"polebracket: cannot read {path}: ")
        assert err.count("\n") == 1
    # no directory part: the text stays inline, with its token message
    for text, token in (("O1+ X", "X"), ("adir", "adir")):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "invariant", "-i", text)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"bad token {token!r}\n")


def test_undecodable_input_file_is_parse_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bin.tgc").write_bytes(b"\xff\xfe")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "info", "-i", "./bin.tgc")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("polebracket: cannot read ./bin.tgc: ")
    assert err.count("\n") == 1


def test_no_component_line_is_the_empty_link(capsys, tmp_path, monkeypatch):
    # empty stdin, an empty file and a comment-only file parse as the empty
    # link, with the bytes CI pins; an empty --input string is a usage error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.tgc").write_text("", encoding="utf-8")
    (tmp_path / "comment.tgc").write_text("# nothing\n\n", encoding="utf-8")
    for source in ("-", "./empty.tgc", "./comment.tgc"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert run(capsys, "invariant", "-i", source) == (0, "1\n", "")
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert run(capsys, "info", "--json", "-i", source) == \
            (0, '{"euler":0,"h1_rank":0,"orientable":true,"pieces":[]}\n', "")
    with pytest.raises(SystemExit) as exc:
        run(capsys, "invariant", "-i", "")
    assert exc.value.code == 1
    err = capsys.readouterr()
    assert err.out == "" and err.err == "polebracket: an input code is required (--input)\n"


def test_inline_code_wins_over_file_of_that_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "B").write_text("O1+ U1+\n", encoding="utf-8")
    code, out, _ = run(capsys, "invariant", "-i", "B")
    assert code == 0 and out.strip() == "M"
    code, out, _ = run(capsys, "invariant", "-i", "./B")
    assert code == 0 and out.strip() == "-A^2-A^-2"


def test_states_json_streams_the_same_bytes(capsys):
    from polebracket.codes import parse_code
    from polebracket.states import enumerate_states, state_report
    from polebracket.surfaces import realize

    text = "O1- U2- O3- U1- O2- U3-"
    code = parse_code(text)
    F = realize(code)
    reports = [state_report(F, s) for s in enumerate_states(F)]
    assert len(reports) == 8
    rc, out, _ = run(capsys, "states", "-i", text, "--json")
    assert rc == 0
    assert out == json.dumps(reports, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "text, flag, digest",
    [
        ("O1+ O2+ U1+ U2+", "--json", "408a99e10d524fc3ad3d4a5bb555f6e47e71178af5de14a9564bc4658c285415"),
        ("O1+ O2+ U1+ U2+", "--dump", "52478c6f8f0110ef4f4798937ee187615eb2653d6a68dea410a2acc46066f826"),
        ("B O1+ B U1+", "--json", "6df7525279dd2c8411da4d13ceea8cd40e41b6700c985173ab2bb091cbaa66cb"),
        ("B O1+ B U1+", "--dump", "1c80f140d2375d158883245ad89c41a9efa5c468474b36f957d5447827c1c328"),
        ("B;O1+ U1+", "--json", "bb03e6ba1587229cf355987877d20e040e9bf2908c0e1ae21e812961c7e3525b"),
        ("B;O1+ U1+", "--dump", "554d02e66fa9738785970e3a335f11a614743704b12305910538719d6415421f"),
        ("O1- U2- O3- U1- O2- U3-", "--json", "19892b7e2693eec8ea79447d3db2409acdc2187554c4ee453963efe23a16e07c"),
        ("O1- U2- O3- U1- O2- U3-", "--dump", "eb82495c85c9ba95a774b134528504ee71c004aa34c06ebc5c460f75bac6a984"),
        ("O1- O2+ U1- U2+;B", "--json", "2d3b3ceb77e60dd47ceaefb4af1ef1408a8c4e18979acdb8cd4a20afb4a745c2"),
        ("O1- O2+ U1- U2+;B", "--dump", "beb59ba2d823cd108895151fdcac3188e00dc99fda2743c22d54b97f02c7cd28"),
    ],
)
def test_states_output_bytes_are_pinned(capsys, text, flag, digest):
    # SHA-256 of `states` output as first recorded; no bench workload runs
    # it.  The codes reach both crossing signs, flipped bands and bare loops
    rc, out, _ = run(capsys, "states", "-i", text, flag)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# three pieces (crosscaps 2, torus, RP^2) whose order by largest disk is not
# their order by smallest disk; a twisted two-component code on one piece
# with h1_rank 4; the 6-crossing code CI compares across worker counts
_MIXED = "O1+ O4+ U1+ U4+;O2+ B U2+ O3+ U3+ B;B"
_TWISTED = "U1- O3+ O4- O2- U4- B;B O1- U3+ U2-"
_CI = "O3- U1+ U6+ U2- O2- O1+ O4+ O5+ U3- U4+ U5+ B O6+ B"
# its double bracket has M^2 and d_2, the second d field of a packed (M, d)
# part: `dbracket` prints d_2 + M^2*(A^2+1+A^-2)
_MD = "U1+ B B O2- B U2- O1+ B"
# `HIGH_GENUS` has h1_rank 14: a class spans two bytes, so `bracket` prints
# signatures whose entries sort on bits past the first byte


@pytest.mark.parametrize(
    "text, argv, digest",
    [
        (_MIXED, ("bracket",), "cd75c2da1abd23fe36b8d05bcd7c1da7624549a3aa03721801fd401072eade4a"),
        (_MIXED, ("bracket", "--json"), "83b8d65fd0b084957e113a66d3218ba9a3a96ae9c8d13b1ddd5774f04841c90a"),
        (_MIXED, ("info", "--json"), "41254a1ccfe31adda92b461f50ab6a26ca44c83c81980030654b3b4b591e0d29"),
        (_TWISTED, ("bracket",), "07341ab84ad3823756662776fde3f7bad00c1d56437ea8c7e17022b91b76502c"),
        (_TWISTED, ("bracket", "--json"), "963f6e3dc451f4db8fe36036f5ab57b7870d89bd1b582597f916a2e3f19ed92a"),
        (_TWISTED, ("info", "--json"), "40569b9ad3e7e28f4b1e0299d71343b9179d699c3236359e5bfc3736bcb30b97"),
        (_CI, ("bracket",), "d478ea0c4a3810a40a5ca968d4baaee6f32f7b731e66083bf76c132c3f88e0d6"),
        (_CI, ("bracket", "--json"), "1212d21d3be9c49069dc9f321d56623e441d8e111a860f442b15f6d274790caa"),
        (_CI, ("info", "--json"), "6da9f027f6391ebf2d816a745ab0bf7fe5286e6b77cf7624fe0c45aaccb94e2e"),
        (_MIXED, ("dbracket", "--json"), "d17bb946de363900ab884386e12ff3ea11eb6654ac793644547f74bfbd68aa79"),
        (_MIXED, ("invariant", "--json"), "961d88873c202397dbbcbfbb59735b6898119d208e1a301a72bedb9b948ab258"),
        (_TWISTED, ("dbracket", "--json"), "c3619c9e8ef4592f937dbe52f36adcd600e9b8d144c1cff5bc8b71d7c5e551f4"),
        (_TWISTED, ("invariant", "--json"), "3493b09e1db60b852ecec638ec69acf707bd47874e52f692ccf3ac62b71ad643"),
        (_CI, ("dbracket", "--json"), "f454ce02e4f2b6292a188994ef8dc7fa172fb372b3c187abed3275279b96e591"),
        (_CI, ("invariant", "--json"), "47233fa8cb865726841414e19bf1332364516f4e9461dd69b775eec5c8adc9f6"),
        (_MD, ("dbracket",), "cf9030ea4179488b163f0318d6c9bc6f05595d0a365a7469bb50c7088bb0da78"),
        (_MD, ("dbracket", "--json"), "e1b054583ae68acaf080984f70d5f5eee7c58fec33156b19b4af3847e9f31b4b"),
        (HIGH_GENUS, ("bracket",), "b10d314aeb026b21d49410741ef15e7d6e2c1e30ff1fe2d91b6db3156f8de1dc"),
        (HIGH_GENUS, ("bracket", "--json"), "68526767d0b31a7585038f5b7f645a95ac031f633a80dadda089f26385d335c8"),
    ],
)
def test_bracket_and_info_bytes_are_pinned(capsys, text, argv, digest):
    # SHA-256 as first recorded: `bracket` prints each class's homology
    # coordinates, so this pins the basis as well as the piece order; the
    # `dbracket` and `invariant` JSON pins cover `MultiLaurent.to_json`
    rc, out, _ = run(capsys, *argv, "-i", text)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("cmd, name", [
    ("bracket", "surface_pole_bracket"), ("dbracket", "double_bracket"), ("invariant", "normalized"),
])
def test_state_sum_commands_call_the_function_bound_at_call_time(capsys, monkeypatch, cmd, name):
    # a wrapper bound over the module's global after import, as a tracer
    # binds one, is the function `main` calls
    from polebracket import cli

    calls = []
    inner = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a) or inner(*a, **k))
    rc, out, _ = run(capsys, cmd, "-i", "O1+ U1+")
    assert rc == 0 and out and len(calls) == 1


@pytest.mark.parametrize("cmd", ["info", "invariant", "bracket", "states --json"])
def test_fixtures_build_no_polygon_complex(capsys, monkeypatch, cmd):
    # the capped surface, the disk test and the regions all run on int
    # tables; `cells.PolygonComplex` is only the tests' reference
    from polebracket import cells
    from polebracket.verify import classical_fixtures, twisted_fixtures

    texts = [serialize(code) for _n, code in classical_fixtures() + twisted_fixtures()]
    before = [run(capsys, *cmd.split(), "-i", t) for t in texts]
    monkeypatch.setattr(cells.PolygonComplex, "__init__", _no_polygon_complex)
    assert [run(capsys, *cmd.split(), "-i", t) for t in texts] == before


# `check` stdout as first recorded: (move sites, states, diagrams, classical
# diagrams) checked, per (seed, count)
_CHECK_PINS = {
    (1, 0): (0, 47, 9, 9), (1, 2): (42, 67, 11, 9), (1, 6): (128, 205, 15, 9),
    (2, 0): (0, 77, 9, 9), (2, 2): (39, 110, 11, 9), (2, 6): (127, 447, 15, 9),
    (3, 0): (0, 53, 9, 9), (3, 2): (43, 93, 11, 9), (3, 6): (126, 295, 15, 9),
    (4, 0): (0, 53, 9, 9), (4, 2): (41, 125, 11, 9), (4, 6): (121, 208, 15, 9),
}


@pytest.mark.parametrize("seed, count", sorted(_CHECK_PINS))
def test_check_output_bytes_are_pinned(capsys, seed, count):
    moves, states, diagrams, classical = _CHECK_PINS[seed, count]
    expect = (
        f"PASS  move invariance of R ({moves} checked, 0 failures)\n"
        f"PASS  essential curves never separate ({states} checked, 0 failures)\n"
        f"PASS  region pole balance ({states} checked, 0 failures)\n"
        f"PASS  specialization identity ({diagrams} checked, 0 failures)\n"
        f"PASS  classical bracket oracle ({classical} checked, 0 failures)\n"
        "all checks passed\n"
    )
    assert run(capsys, "check", "--seed", str(seed), "--count", str(count)) == (0, expect, "")


def _no_cap_table(*_args):
    raise AssertionError("built a per-state cap table")


def test_only_check_builds_a_cap_table(capsys, monkeypatch):
    # `pole_regions` builds a pole table per state; only the pole-balance
    # check of `check` runs it, and `info` runs no per-state pole table
    from polebracket import states
    from polebracket.verify import classical_fixtures, twisted_fixtures

    texts = [serialize(code) for _n, code in classical_fixtures() + twisted_fixtures()]
    before = [run(capsys, "info", "-i", t) for t in texts]
    monkeypatch.setattr(states, "pole_regions", _no_cap_table)
    assert [run(capsys, "info", "-i", t) for t in texts] == before
    with pytest.raises(AssertionError, match="cap table"):
        run(capsys, "check", "--seed", "1", "--count", "0")


def _no_class_table(*_args):
    raise AssertionError("built a band class table")


def test_info_builds_no_band_class_table(capsys, monkeypatch):
    # `band_class` is made on first use, by a state sum or a curve
    # predicate; `info` prints only the rank, which construction fixes
    from polebracket.surfaces import ClosedSurface
    from polebracket.verify import classical_fixtures, twisted_fixtures

    texts = [serialize(code) for _n, code in classical_fixtures() + twisted_fixtures()]
    before = [run(capsys, "info", "-i", t) for t in texts]
    monkeypatch.setattr(ClosedSurface, "band_class", property(_no_class_table))
    assert [run(capsys, "info", "-i", t) for t in texts] == before
    with pytest.raises(AssertionError, match="band class table"):
        run(capsys, "invariant", "-i", texts[0])


def _no_signature(*_args):
    raise AssertionError("program code built a signature")


def test_R_builds_no_signature(capsys, monkeypatch):
    # `invariant`, `dbracket` and the move sweep fold R off the leaf keys,
    # under the (M, d) labelling: they build no bag, no signature and no
    # class bit tuple, which only the signature labelling of `bracket` and
    # `check` builds
    import random

    from polebracket import states, verify
    from polebracket.brackets import normalized
    from polebracket.surfaces import build_ribbon
    from polebracket.verify import classical_fixtures, corpus_twisted, twisted_fixtures

    codes = [code for _n, code in classical_fixtures() + twisted_fixtures()] + corpus_twisted(2, 6)
    texts = [serialize(code) for code in codes]
    before = [run(capsys, cmd, "-i", t) for t in texts for cmd in ("invariant", "dbracket")]
    invariants = [normalized(code) for code in codes]
    monkeypatch.setattr(states._Engine, "signatures", _no_signature)
    monkeypatch.setattr(states._Classes, "entries", property(_no_signature))
    assert [run(capsys, cmd, "-i", t) for t in texts for cmd in ("invariant", "dbracket")] == before
    rng = random.Random(2)
    swept = [verify.move_invariance(code, build_ribbon(code), r, rng) for code, r in zip(codes, invariants)]
    assert sum(n for n, _bad in swept) > 50 and not [bad for _n, bad in swept if bad]
    with pytest.raises(AssertionError, match="built a signature"):
        run(capsys, "bracket", "-i", texts[0])


def test_check_builds_no_polygon_complex(capsys, monkeypatch):
    from polebracket import cells

    before = run(capsys, "check", "--seed", "1", "--count", "2")
    monkeypatch.setattr(cells.PolygonComplex, "__init__", _no_polygon_complex)
    assert run(capsys, "check", "--seed", "1", "--count", "2") == before


def _no_polygon_complex(*_args):
    raise AssertionError("program code built a polygon complex")


def test_check_fails_on_a_site_its_enumerators_offer_but_the_move_rejects(capsys, monkeypatch):
    from polebracket import verify
    from polebracket.moves import MoveSpec

    _status, before, _ = run(capsys, "check", "--seed", "1", "--count", "2")
    assert "PASS  move invariance of R (42 checked, 0 failures)" in before
    # every diagram is now also offered an R1 deletion outside its code
    real = verify.r1_delete_sites
    bad = MoveSpec("R1+", "delete", (0, 10**6))
    monkeypatch.setattr(verify, "r1_delete_sites", lambda code: real(code) + [bad])
    status, out, _ = run(capsys, "check", "--seed", "1", "--count", "2")
    assert status == 3
    # the two twisted diagrams each fail once, and the rejected sites count as checked
    assert "FAIL  move invariance of R (44 checked, 2 failures)" in out
    assert "all checks passed" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "-i", "B", "--workers", "0"),
        ("invariant", "-i", "B", "--workers", "-3"),
        ("random", "--count", "-2"),
        ("random", "--max-crossings", "-5"),
        ("check", "--count", "-1"),
        ("states", "-i", "B", "--max-crossings", "-1"),
    ],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 1
    assert f"{argv[-2]} must" in capsys.readouterr().err


def test_one_process_reuses_its_parser(capsys):
    # each in-process call prints the bytes and exits with the code of the
    # same call in a fresh process, though all of them share one parser
    import polebracket
    from polebracket.cli import build_parser

    src = str(Path(polebracket.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    vt = "O1+ O2+ U1+ U2+"
    insert = ("move", "-i", "O1+ U2+ U1+ O2+", "--kind", "R1+", "--dir", "insert", "--site", "0,1")
    calls = [
        insert + ("--variant", "1"),
        insert,  # no --variant: 0, not the 1 of the call before
        ("invariant", "--json", "-i", vt),
        ("invariant", "-i", vt),
        ("move", "-i", vt, "--kind", "R9", "--dir", "insert"),  # usage error
        ("invariant", "-i", "O1+"),  # parse error
        ("info", "-i", vt),
    ]
    seen = []
    for argv in calls:
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "polebracket", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (status, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        seen.append((status, out.out))
    assert [status for status, _ in seen] == [0, 0, 0, 0, 1, 2, 0]
    assert seen[0][1] != seen[1][1] and seen[2][1] != seen[3][1]
    assert build_parser() is build_parser()


# the options each subcommand takes, as `main` reads them; `info` also takes
# --workers, which the bench harness passes with every code it feeds in
_TAKES = {
    "info": {"--input", "--json", "--workers"},
    "states": {"--input", "--json", "--dump", "--max-crossings"},
    "bracket": {"--input", "--json", "--workers", "--max-crossings"},
    "dbracket": {"--input", "--json", "--workers", "--max-crossings"},
    "invariant": {"--input", "--json", "--workers", "--max-crossings"},
    "move": {"--input", "--kind", "--dir", "--site", "--variant"},
    "check": {"--seed", "--count"},
    "random": {"--seed", "--count", "--max-crossings"},
}
# each subcommand's shortest valid call, and the seven options every
# subcommand once took, with a value for those that need one
_CALLS = {
    "info": ("-i", "B"),
    "states": ("-i", "B"),
    "bracket": ("-i", "B"),
    "dbracket": ("-i", "B"),
    "invariant": ("-i", "B"),
    "move": ("-i", "EMPTY", "--kind", "R1+", "--dir", "insert", "--site", "0,0"),
    "check": ("--count", "0"),
    "random": (),
}
_OLD_COMMON = {
    "--input": ("B",), "--json": (), "--seed": ("1",), "--count": ("1",),
    "--max-crossings": ("4",), "--workers": ("2",), "--dump": (),
}


def test_each_subcommand_takes_its_table_row():
    from polebracket.cli import build_parser

    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert sorted(subparsers) == sorted(_TAKES)
    takes = {
        name: [a.option_strings[0] for a in p._actions if a.option_strings[0] != "-h"]
        for name, p in subparsers.items()
    }
    assert {name: set(opts) for name, opts in takes.items()} == _TAKES
    assert sum(map(len, takes.values())) == 29


@pytest.mark.parametrize(
    "cmd, option",
    [(cmd, opt) for cmd in _TAKES for opt in _OLD_COMMON if opt not in _TAKES[cmd]],
)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(capsys, cmd, option):
    with pytest.raises(SystemExit) as exc:
        run(capsys, cmd, *_CALLS[cmd], option, *_OLD_COMMON[option])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err


def test_info_takes_workers_as_the_bench_passes_it(capsys):
    plain = run(capsys, "info", "-i", "B")
    assert plain[0] == 0
    assert run(capsys, "info", "-i", "B", "--workers", "1") == plain
