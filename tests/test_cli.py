import importlib
import io
import json
import os
import pkgutil
import re
import signal
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import Decimal, InvalidOperation
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import simulpal
from simulpal import cli, precise, simulcheck
from simulpal.radix import DomainError

from conftest import V1_CHECKPOINT


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDENS = Path(__file__).parent.parent / "perfbench" / "goldens"


@contextmanager
def deadline(seconds):
    """Turn a run that does not return within ``seconds`` into a failure."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_parse_exact_int():
    assert cli.parse_exact_int("123") == 123
    assert cli.parse_exact_int("1e18") == 10**18
    assert cli.parse_exact_int("2.65e15") == 2_650_000_000_000_000
    with pytest.raises(DomainError):
        cli.parse_exact_int("1.5")
    with pytest.raises(DomainError):
        cli.parse_exact_int("ten")
    with pytest.raises(DomainError, match="not a number"):  # a bound is an integer or shorthand, not a ratio
        cli.parse_exact_int("6/3")
    # int() counts leading zeros against its digit limit; the value has two digits
    assert cli.parse_exact_int(" " + "0" * 5000 + "17") == 17
    with pytest.raises(DomainError, match=r"^'1{12}\.\.\.1{13}' is an integer of 5000 digits, more than the"):
        cli.parse_exact_int("1" * 5000)
    # the digit count of shorthand comes from its exponent, whatever the mantissa's length
    with pytest.raises(DomainError, match=r"^'1{12}\.\.\.1{11}e2' is an integer of 5002 digits, more than the 4300"):
        cli.parse_exact_int("1" * 5000 + "e2")
    assert cli.parse_exact_int("1" + "0" * 5000 + "e-4990") == 10**10
    with deadline(5):  # the value, 10**10**7, is never built
        with pytest.raises(DomainError, match="is an integer of 10000001 digits"):
            cli.parse_exact_int("1e10000000")
    # past Decimal's exponent range, about 10**18, shorthand was "not a number"
    with pytest.raises(DomainError, match=r"^'1e9{19}' is an integer of more than 10\*\*18 digits"):
        cli.parse_exact_int("1e" + "9" * 19)
    with pytest.raises(DomainError, match=r"is a negative integer of more than 10\*\*18 digits"):
        cli.parse_exact_int("-1E+" + "9" * 25)
    with pytest.raises(DomainError, match=r"^'1e-9{19}' is not an integer$"):
        cli.parse_exact_int("1e-" + "9" * 19)
    assert cli.parse_exact_int("0e" + "9" * 19) == 0
    with pytest.raises(DomainError, match="not a number"):
        cli.parse_exact_int("1e2e" + "9" * 19)
    # the same with Python's underscore grouping read "not a number"
    with pytest.raises(DomainError, match=r"^'1_0e9{19}' is an integer of more than 10\*\*18 digits"):
        cli.parse_exact_int("1_0e" + "9" * 19)
    with pytest.raises(DomainError, match=r"^'-1e9_9{18}' is a negative integer of more than 10\*\*18 digits"):
        cli.parse_exact_int("-1e9_" + "9" * 18)
    # int and float allow an underscore only between two digits; Decimal, once read first, took these
    for text in ("1__0", "._5e5", "1_.5e3", "._5e" + "9" * 19):
        with pytest.raises(DomainError, match="not a number"):
            cli.parse_exact_int(text)


def test_parse_exact_int_with_the_digit_limit_off(capsys):
    # with no int-str limit a value past Python's default limit and the text's own length is refused unbuilt:
    # 1e10000000000 used to start building a 4 GB integer
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with deadline(5):
            refused = r"^'1e10000000000' is an integer of 10000000001 digits, more than the 4300 digits a report"
            with pytest.raises(DomainError, match=refused):
                cli.parse_exact_int("1e10000000000")
            with pytest.raises(DomainError, match="is an integer of 5003 digits, more than the 5002 digits"):
                cli.parse_exact_int("1" * 5000 + "e3")
            assert cli.parse_exact_int("1" * 5000 + "e2") == int("1" * 5000) * 100  # a written-out integer reads whole
            assert cli.parse_exact_int("9" * 6000) == 10**6000 - 1
            with pytest.raises(DomainError, match="more than 10\\*\\*18 digits"):
                cli.parse_exact_int("1e" + "9" * 19)
            code, out, err = run(capsys, "check", "1e10000000000", "--bases", "10")
        assert code == 2 and out == "" and len(err.splitlines()) == 1 and len(err) < 200
    finally:
        sys.set_int_max_str_digits(previous)


_SIGNS = st.sampled_from(["", "+", "-"])


@st.composite
def _grouped(draw, most: int):
    # an integer below ``most`` in digits, with single underscores between some of them
    digits = str(draw(st.integers(0, most - 1)))
    marks = draw(st.lists(st.booleans(), min_size=len(digits) - 1, max_size=len(digits) - 1))
    return digits[0] + "".join("_" * mark + digit for mark, digit in zip(marks, digits[1:]))


@settings(max_examples=300, deadline=None)
@given(_SIGNS, _grouped(10**6), st.none() | _grouped(10**6), st.sampled_from("eE"), _SIGNS, _grouped(10**25))
def test_shorthand_is_its_integer_or_a_domain_error(sign, whole, fraction, e, exponent_sign, exponent):
    # integer shorthand, with exponents of up to 25 digits, is never "not a number"
    mantissa = whole if fraction is None else f"{whole}.{fraction}"
    text = f"{sign}{mantissa}{e}{exponent_sign}{exponent}"
    try:
        value = cli.parse_exact_int(text)
    except DomainError as exc:
        assert "not a number" not in str(exc)
        return
    try:
        assert value == int(Decimal(text))
    except InvalidOperation:  # past Decimal's exponent range only a zero mantissa gives an integer
        assert value == 0 == Decimal(mantissa)


def test_check_exit_codes(capsys):
    code, doc, _ = run_json(capsys, "check", "585", "--bases", "10,2")
    assert code == 0
    assert doc["results"] == {"10": True, "2": True}
    code, doc, _ = run_json(capsys, "check", "10", "--bases", "10")
    assert code == 1 and doc["results"]["10"] is False
    code, doc, _ = run_json(capsys, "check", "5415589", "--bases", "2,3")
    assert code == 0


def test_check_validation_exit(capsys):
    code, out, err = run(capsys, "check", "585", "--bases", "1")
    assert code == 2 and "error" in err


def test_search_report(capsys):
    code, doc, _ = run_json(capsys, "search", "10", "2", "1e5")
    assert code == 0
    assert doc["command"] == "search"
    assert doc["parameters"]["bound"] == 100000
    assert doc["results"]["count"] == 18
    assert doc["results"]["palindromes"][:5] == [1, 3, 5, 7, 9]
    assert doc["results"]["palindromes"][-1] == 73737


def test_search_reports_are_deterministic(capsys):
    def snapshot():
        code, out, _ = run(capsys, "search", "10", "2", "1e4")
        doc = json.loads(out)
        del doc["timing_seconds"]
        return code, json.dumps(doc, indent=2)

    assert snapshot() == snapshot()


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "10", "2", "100", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["palindrome", "1", "3", "5", "7", "9", "33", "99"]


def test_count_command(capsys):
    code, doc, _ = run_json(capsys, "count", "10", "2", "1e5")
    assert code == 0 and doc["results"] == {"count": 18}


def test_search_checkpoint_and_resume(capsys, tmp_path):
    path = str(tmp_path / "cp.json")
    code1, doc1, _ = run_json(capsys, "search", "10", "2", "1e5", "--checkpoint", path)
    code2, doc2, _ = run_json(capsys, "search", "10", "2", "1e5", "--resume", path)
    assert code1 == code2 == 0
    assert doc1["results"] == doc2["results"]
    assert doc2["checkpoint_path"] == path


def test_resume_mismatch_exit_code(capsys, tmp_path):
    path = str(tmp_path / "cp.json")
    run(capsys, "search", "10", "2", "1e5", "--checkpoint", path)
    code, out, err = run(capsys, "search", "10", "2", "1e6", "--resume", path)
    assert code == 3 and "checkpoint" in err


def test_search_progress_on_stderr(capsys):
    code, out, err = run(capsys, "search", "10", "2", "1000", "--progress")
    assert code == 0
    assert "length" in err
    json.loads(out)  # stdout stays a clean JSON document


def test_family_certified(capsys):
    code, doc, _ = run_json(capsys, "family", "9", "10", "2")
    assert code == 0
    res = doc["results"]
    assert res["status"] == "complete" and res["branch"] == "dependent"
    assert res["shifts"] == [1, 3] and res["values"] == [99, 9009]
    assert res["witness"]["r"] == 1 and res["witness"]["degenerate"] is True
    assert res["dependent_sieve"]["survivors"] == []


def test_family_independent_trail(capsys):
    code, doc, _ = run_json(capsys, "family", "74", "10", "2")
    assert code == 0
    res = doc["results"]
    assert res["branch"] == "independent"
    assert res["shifts"] == [2] and res["values"] == [7447]
    assert res["pair_used"]["q"] > 0 and res["reduced_bound"] <= 81


def test_family_dependent_small_bound(capsys):
    code, doc, err = run_json(capsys, "family", "1", "10", "2", "--bound", "5")
    assert code == 0 and err == ""
    res = doc["results"]
    assert res["status"] == "complete" and res["branch"] == "dependent"
    assert res["shifts"] == [] and res["tested_upper"] == 5


def test_family_rejected_prefix(capsys):
    code, out, err = run(capsys, "family", "20", "10", "2")
    assert code == 2 and "divides" in err


def test_family_undecided_exit_code(capsys, monkeypatch):
    from simulpal.reduction import FamilyReport

    def fake(a, g, h, **kwargs):
        return FamilyReport(
            a=a, g=g, h=h, alpha=None, ns=(2,), status="undecided", branch="independent",
            bound=10**9, reduced_bound=None, pair_used=None, dependent_result=None,
            witness=None, tested_upper=50, undecided_above=50,
        )

    monkeypatch.setattr(cli.reduction, "verify_family", fake)
    code, doc, _ = run_json(capsys, "family", "74", "10", "2")
    assert code == 4
    assert doc["results"]["undecided_above"] == 50


def test_bound_report(capsys):
    code, doc, _ = run_json(capsys, "bound", "999999", "10", "2")
    assert code == 0
    val = doc["results"]["shift_exponent_bound"]
    assert val["value"] <= 2.65e15 and abs(val["log10"] - 15.42) < 0.01
    assert "three_log_solved" in doc["results"]["shift_exponent_terms"]
    assert "zero_run_threshold" not in doc["results"]


def test_bound_report_with_shift(capsys):
    code, doc, _ = run_json(capsys, "bound", "1", "10", "2", "1000000")
    assert code == 0
    assert doc["results"]["zero_run_threshold"]["value"] == pytest.approx(1.927e12, rel=1e-3)


def test_bound_validation(capsys):
    code, out, err = run(capsys, "bound", "1", "8", "2")
    assert code == 2


def test_cf_report(capsys):
    code, doc, _ = run_json(capsys, "cf", "10", "2", "8")
    assert code == 0
    assert doc["results"]["quotients"] == [3, 3, 9, 2, 2, 4, 6, 2]
    assert doc["results"]["convergents"][2] == {"p": 93, "q": 28}
    assert doc["results"]["exact"] is False


def test_cf_csv(capsys):
    code, out, _ = run(capsys, "cf", "10", "2", "3", "--format", "csv")
    assert out.splitlines() == ["index,quotient,p,q", "0,3,3,1", "1,3,10,3", "2,9,93,28"]


def test_threads_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert cli.build_parser().parse_args(["search", "10", "2", "100"]).threads == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert cli.build_parser().parse_args(["count", "10", "2", "100"]).threads == 5


def test_search_reports_the_threads_it_ran_with(capsys, monkeypatch):
    # 1e5 gives every digit-length block one chunk, so no worker process starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.warns(UserWarning, match="threads=100000 capped at 2"):
        code, doc, _ = run_json(capsys, "search", "10", "2", "1e5", "--threads", "100000")
    assert code == 0 and doc["parameters"]["threads"] == 2
    assert doc["results"]["count"] == 18


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],  # truncated
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "cursor"}),
        lambda text: json.dumps({**json.loads(text), "found": [4]}),
        lambda text: "[]",
        lambda text: "null",
        lambda text: json.dumps({**json.loads(text), "cursor": {"digit_length": 5, "half_value": 999}}),
        # 585 deleted from the hits up to 999, the count left at 10
        lambda text: json.dumps(
            {**json.loads(text), "cursor": 999, "hits": 10, "found": [1, 3, 5, 7, 9, 33, 99, 313, 717]}
        ),
    ],
    ids=["truncated", "missing-key", "tampered-found", "list", "null", "dict-cursor", "missing-hit"],
)
def test_damaged_checkpoint_exit_code(capsys, tmp_path, damage):
    path = tmp_path / "cp.json"
    run(capsys, "search", "10", "2", "1e5", "--checkpoint", str(path))
    path.write_text(damage(path.read_text()))
    code, out, err = run(capsys, "search", "10", "2", "1e5", "--resume", str(path))
    assert code == 3 and err.startswith("checkpoint error") and out == ""


def test_deeply_nested_checkpoint_exit_code(capsys, tmp_path):
    # json.loads raises RecursionError here, which once escaped as a traceback
    path = tmp_path / "cp.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "count", "10", "2", "1e5", "--threads", "1", "--resume", str(path))
    assert code == 3 and err.startswith("checkpoint error: damaged checkpoint: RecursionError")
    assert len(err.splitlines()) == 1 and out == ""


@pytest.mark.parametrize(
    "doc",
    [
        V1_CHECKPOINT,
        {"version": "simulpal-checkpoint-v0", "g": 10, "h": 2, "bound": 10**5, "cursor": 0, "hits": 0, "found": []},
    ],
    ids=["v1-shaped", "v2-shaped"],
)
def test_checkpoint_of_another_version_exit_code(capsys, tmp_path, doc):
    path = tmp_path / "cp.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "count", "10", "2", "1e5", "--resume", str(path))
    assert code == 3 and f"unsupported checkpoint version '{doc['version']}'" in err
    assert "Traceback" not in err and out == ""


def test_checkpoint_with_an_early_cursor_resumes(capsys, tmp_path):
    path = tmp_path / "cp.json"
    _, full, _ = run_json(capsys, "search", "10", "2", "1e6", "--checkpoint", str(path))
    found = [n for n in json.loads(path.read_text())["found"] if n <= 313]
    simulcheck.SearchCheckpoint(10, 2, 10**6, 313, found).save(str(path))  # an early cursor, with its own checksum
    # the first run was driven by base 10; base 2 drives the resume
    code, resumed, _ = run_json(
        capsys, "search", "10", "2", "1e6", "--resume", str(path), "--enumeration-base", "2"
    )
    assert code == 0 and resumed["results"] == full["results"]


@pytest.mark.parametrize("is_dir", [False, True], ids=["missing-directory", "directory"])
def test_unwritable_checkpoint_exit_code(capsys, tmp_path, is_dir):
    # a path inside a directory that does not exist, or a directory itself
    path = tmp_path / "cp"
    if is_dir:
        path.mkdir()
    else:
        path = path / "cp.json"
    code, out, err = run(capsys, "search", "10", "2", "1e5", "--checkpoint", str(path))
    assert code == 3 and err.startswith("checkpoint error: cannot write checkpoint")
    assert "Traceback" not in err and out == ""
    assert os.listdir(tmp_path) == (["cp"] if is_dir else [])  # no temp file left behind


@pytest.mark.parametrize("option", ["--checkpoint", "--resume"])
def test_long_checkpoint_path_is_quoted_short(capsys, tmp_path, option):
    # the message quoted the whole path and the OSError text repeated it: 6.1 KB of stderr
    path = str(tmp_path / ("f" * 3000) / "cp.json")
    code, out, err = run(capsys, "search", "10", "2", "1e3", "--threads", "1", option, path)
    assert code == 3 and out == "" and err.startswith("checkpoint error: ")
    assert len(err.encode()) < 1000 and len(err.splitlines()[-1].encode()) < 200


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("search-10-2-1e9", ["search", "10", "2", "1e9", "--threads", "1"]),
        ("family-74-10-2", ["family", "74", "10", "2"]),
        ("cf-10-2-50", ["cf", "10", "2", "50"]),
    ],
)
def test_reports_match_goldens(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    doc["timing_seconds"] = None
    assert code == 0
    assert json.dumps(doc, indent=2) + "\n" == (GOLDENS / f"{golden}.json").read_text()


@pytest.mark.parametrize(
    "command, code, csv",
    [
        ("check 585 --bases 10,2", 0, ["base,is_palindrome", "10,True", "2,True"]),
        ("check 10 --bases 10,2", 1, ["base,is_palindrome", "10,False", "2,False"]),
        ("search 10 2 1e3 --threads 1", 0, ["palindrome", "1", "3", "5", "7", "9", "33", "99", "313", "585", "717"]),
        ("search 10 2 100 --threads 1 --checkpoint CP", 0, ["palindrome", "1", "3", "5", "7", "9", "33", "99"]),
        ("count 10 2 1e9 --threads 1", 0, ["count", "30"]),
        ("count 10 2 1e9 --threads 1 --checkpoint CP", 0, ["count", "30"]),
        ("family 9 10 2", 0, ["n,value", "1,99", "3,9009"]),
        # the report is printed even though the certification is left undecided
        ("family 74 10 2 --bound 1e40 --exhaustive-limit 50", 4, ["n,value", "2,7447"]),
        (
            "bound 1 10 2",
            0,
            [
                "quantity,value",
                "shift_exponent_bound,131463019477863.0",
                "shift_term_tail_fit,3.3219280948873626",
                "shift_term_dependence_degree,62.05050236331545",
                "shift_term_three_log_solved,131463019477863.0",
            ],
        ),
        ("cf 10 2 3", 0, ["index,quotient,p,q", "0,3,3,1", "1,3,10,3", "2,9,93,28"]),
    ],
    ids=[
        "check", "check-negative", "search", "search-checkpoint", "count", "count-checkpoint",
        "family", "family-undecided", "bound", "cf",
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_every_subcommand_prints_one_report(capsys, tmp_path, command, code, csv, fmt):
    # one envelope for every subcommand, in either format, whatever the exit code
    cp = str(tmp_path / "cp.json")
    argv = [cp if arg == "CP" else arg for arg in command.split()] + ["--format", fmt]
    got, out, err = run(capsys, *argv)
    assert got == code and err == ""
    if fmt == "csv":
        assert out == "\n".join(csv) + "\n"
        return
    doc = json.loads(out)
    envelope = ["command", "parameters", "results", "timing_seconds"]
    assert list(doc) == envelope + (["checkpoint_path"] if cp in argv else [])
    assert doc["command"] == argv[0] and doc.get("checkpoint_path", cp) == cp
    if argv[0] == "family":
        assert doc["results"]["status"] == ("undecided" if code == 4 else "complete")


@pytest.mark.parametrize(
    "argv, code",
    [
        # dependent or equal bases make log g / log h rational: escalation never settled
        pytest.param(["cf", "2", "4", "5"], 2, id="cf-2-4"),
        pytest.param(["cf", "4", "2", "3"], 2, id="cf-4-2"),
        pytest.param(["cf", "10", "10", "3"], 2, id="cf-10-10"),
        # base 1 used to print a bogus exact expansion with exit 0
        pytest.param(["cf", "10", "1", "3"], 2, id="cf-10-1"),
        # zero or negative precision used to refine to the same precision forever
        pytest.param(["cf", "10", "2", "3", "--precision", "0"], 2, id="cf-precision-0"),
        pytest.param(["family", "74", "10", "2", "--precision", "-4"], 2, id="family-precision-negative"),
        # the excluded-parity branch takes no logarithm, so only a range check sees the bits
        pytest.param(["family", "2", "10", "2", "--precision", "0"], 2, id="family-precision-0-no-logarithm"),
        # more quotients than the precision cap certifies
        pytest.param(["cf", "10", "2", "25000", "--precision", "65536"], 4, id="cf-past-precision-cap"),
        # fewer than one worker used to run one silently
        pytest.param(["search", "10", "2", "1e3", "--threads", "0"], 2, id="search-threads-0"),
        pytest.param(["count", "10", "2", "1e3", "--threads", "-3"], 2, id="count-threads-negative"),
        # NaN compares false with every elapsed time, so it would turn the interval writes off
        pytest.param(["search", "10", "2", "1e3", "--checkpoint-interval", "nan"], 2, id="search-interval-nan"),
        pytest.param(["count", "10", "2", "1e3", "--checkpoint-interval", "-1"], 2, id="count-interval-negative"),
        # a negative limit was accepted and the run exited 0
        pytest.param(["family", "74", "10", "2", "--exhaustive-limit", "-1"], 2, id="family-exhaustive-limit-negative"),
        # a repeated base printed one result row for two listed bases; an empty entry was dropped
        pytest.param(["check", "585", "--bases", "10,10"], 2, id="check-bases-repeated"),
        pytest.param(["check", "585", "--bases", "10,,2"], 2, id="check-bases-empty-entry"),
        # an empty --resume exited 3; an empty --checkpoint ran, then exited 3 after its
        # temp file landed in the parent of the working directory
        pytest.param(["count", "10", "2", "1e5", "--resume", ""], 2, id="count-resume-empty"),
        pytest.param(["search", "10", "2", "1e5", "--checkpoint", ""], 2, id="search-checkpoint-empty"),
        # an integer past the 4 300 digits Python converts to a string left json.dumps a traceback and exit 1
        pytest.param(["check", "1e5000", "--bases", "10"], 2, id="check-past-digit-limit"),
        pytest.param(["family", "74", "10", "2", "--bound", "1e5000"], 2, id="family-bound-past-digit-limit"),
        # a digit string past the limit read "not a number" and quoted all of its thousands of characters
        pytest.param(["check", "1" * 5000, "--bases", "10"], 2, id="check-digit-string-past-limit"),
        pytest.param(["check", "-" + "1" * 4301, "--bases", "10"], 2, id="check-digit-string-one-past-limit"),
        pytest.param(["family", "74", "10", "2", "--bound", "1" * 5000], 2, id="family-bound-digit-string-past-limit"),
        pytest.param(["check", "12" * 3000 + "x", "--bases", "10"], 2, id="check-long-non-number"),
        # shorthand with a mantissa past the limit read "not a number", since Fraction refused the mantissa
        pytest.param(["check", "1" * 5000 + "e2", "--bases", "10"], 2, id="check-shorthand-mantissa-past-limit"),
        # shorthand with an exponent past Decimal's range, about 10**18, read "not a number"
        pytest.param(["check", "1e" + "9" * 19, "--bases", "10"], 2, id="check-shorthand-exponent-past-decimal-range"),
        # the same with underscore grouping read "not a number" still
        pytest.param(["check", "1_0e" + "9" * 19, "--bases", "10"], 2, id="check-grouped-shorthand-past-decimal-range"),
        pytest.param(["check", "585", "--bases", "10," + "2" * 5000], 2, id="check-long-base-list"),
    ],
)
def test_bad_input_exits_with_documented_code(capsys, argv, code):
    with deadline(30):
        got, out, err = run(capsys, *argv)
    assert got == code
    assert out == "" and "Traceback" not in err and len(err.splitlines()) == 1 and len(err) < 200
    if any(re.fullmatch(r"[+-]?\d(?:_?\d)*[eE]\+?\d(?:_?\d)*", arg) for arg in argv):  # shorthand is a number
        assert "not a number" not in err


# every integer argument that argparse reads with int's grammar: (argv, its name, its position in argv)
_SEARCH_SLOTS = {"g": 1, "h": 2, "threads": 5, "enumeration-base": 7}
_INT_SLOTS = [
    (argv, name, slot)
    for argv, slots in [
        (["search", "10", "2", "1e3", "--threads", "1", "--enumeration-base", "10"], _SEARCH_SLOTS),
        (["count", "10", "2", "1e3", "--threads", "1", "--enumeration-base", "10"], _SEARCH_SLOTS),
        (
            ["family", "74", "10", "2", "--exhaustive-limit", "50", "--precision", "64"],
            {"a": 1, "g": 2, "h": 3, "exhaustive-limit": 5, "precision": 7},
        ),
        (["bound", "1", "10", "2", "5"], {"a": 1, "g": 2, "h": 3, "n": 4}),
        (["cf", "10", "2", "5", "--precision", "64"], {"g": 1, "h": 2, "count": 3, "precision": 5}),
    ]
    for name, slot in slots.items()
]


@pytest.mark.parametrize("text", ["1" * 5000, "x" * 5000], ids=["past-digit-limit", "long-non-number"])
@pytest.mark.parametrize(
    "argv, slot",
    [(argv, slot) for argv, _, slot in _INT_SLOTS],
    ids=[f"{argv[0]}-{name}" for argv, name, _ in _INT_SLOTS],
)
def test_refused_int_argument_is_quoted_short(capsys, argv, slot, text):
    # argparse's own message quoted the whole text: 5.1-5.4 KB of stderr
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:slot] + [text] + argv[slot + 1 :])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and len(err) < 1000
    assert err.splitlines()[-1].endswith(f"invalid int value: '{text[:12]}...{text[-13:]}'")


# the argument argparse reads with float's grammar, as (argv, position)
_FLOAT_SLOTS = [
    ([command, "10", "2", "1e3", "--threads", "1", "--checkpoint-interval", "300"], 7) for command in ("search", "count")
]


@pytest.mark.parametrize("argv, slot", _FLOAT_SLOTS, ids=["search", "count"])
def test_refused_float_argument_is_quoted_short(capsys, argv, slot):
    # argparse's own message quoted the whole text: 5.4 KB of stderr
    text = "x" * 5000
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:slot] + [text] + argv[slot + 1 :])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and len(err) < 1000
    assert err.splitlines()[-1].endswith(f"invalid float value: '{text[:12]}...{text[-13:]}'")


# the slots read by parse_exact_int, as (argv, position); _INT_SLOTS and _FLOAT_SLOTS list the others
_SHORTHAND_SLOTS = [
    (["check", "585", "--bases", "10,2"], 1),
    (["search", "10", "2", "1e3", "--threads", "1"], 3),
    (["count", "10", "2", "1e3", "--threads", "1"], 3),
    (["family", "74", "10", "2", "--bound", "1e3"], 5),
]
# none is a valid large value: a search bound of 10**60 is a real search
_HOSTILE = [
    "1e5000", "1e10000000", "1e" + "9" * 19, "-1E+" + "9" * 25, "1" * 5000, "9" * 4301, "-" + "1" * 4301,
    "1" * 5000 + "e2", "1e-5", "1e-" + "9" * 25, "2.5", "inf", "-inf", "nan", "NaN", "0x10", "1_000", "1__0",
    "._5e5", "1_.5e3", "._5e" + "9" * 19, "٣", "１２", "١e٣", "", " ", "\t\n", "-3", "0", "12" * 3000 + "x",
]
# float's spelling of a number, infinities and nan aside
_SHORTHAND = re.compile(r"\s*[+-]?(?:\d(?:_?\d)*(?:\.(?:\d(?:_?\d)*)?)?|\.\d(?:_?\d)*)(?:[eE][+-]?\d(?:_?\d)*)?\s*")


@st.composite
def _far_shorthand(draw):
    # shorthand whose exponent is negative, so its value is below 10**6, or puts a nonzero value past 4 300 digits
    # (0.01e4303 has 4 302), so it is refused
    mantissa = draw(_grouped(10**6)) + draw(st.sampled_from(["", ".", ".5", ".0_1"]))
    exponent_sign = draw(_SIGNS)
    exponent = draw(st.integers(0, 10**25) if exponent_sign == "-" else st.integers(4303, 10**25))
    return f"{draw(_SIGNS)}{mantissa}{draw(st.sampled_from('eE'))}{exponent_sign}{exponent}"


@pytest.mark.filterwarnings("ignore:threads=")  # a thread count above the CPUs is capped, with a warning
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_SHORTHAND_SLOTS) | st.sampled_from([(argv, slot) for argv, _, slot in _INT_SLOTS] + _FLOAT_SLOTS),
    st.sampled_from(_HOSTILE) | _far_shorthand() | st.text("0123456789_.+- ٣x", max_size=3),
)
def test_hostile_argument_ends_in_a_documented_exit_code(command, text):
    # one number slot at a time takes the text, every other slot a small valid value
    argv, slot = command
    argv = argv[:slot] + [text] + argv[slot + 1 :]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(simulcheck, "usable_cpus", lambda: 1), redirect_stdout(out), redirect_stderr(err):
        with deadline(3):  # each valid run takes milliseconds
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refused the command line
                code = exc.code
                assert code == 2
    err = err.getvalue()
    assert code in range(5)
    if code in (2, 3):
        assert len(err.encode()) < 1000 and len(err.splitlines()[-1].encode()) < 200
    if _SHORTHAND.fullmatch(text):
        assert "not a number" not in err


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "replace"]),
            st.integers(0, 10**4),
            st.integers(0, 255) | st.sampled_from(b'0123456789",:[]{} -.e'),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_mutated_checkpoint_resumes_or_exits_3(tmp_path_factory, edits):
    # 1-3 bytes inserted, deleted or replaced in a valid v2 checkpoint of search 10 2 1e5 at cursor 5000
    data = bytearray(simulcheck.SearchCheckpoint(10, 2, 10**5, 5000, simulcheck.search(10, 2, 5000)).to_json(), "utf-8")
    for edit, at, byte in edits:
        at %= len(data) + (edit == "insert")
        if edit == "insert":
            data[at:at] = bytes([byte])
        elif edit == "delete":
            del data[at]
        else:
            data[at] = byte
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["search", "10", "2", "1e5", "--threads", "1", "--resume", str(path)])
    if code == 3:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1 and len(err.getvalue().encode()) < 200
    else:
        assert code == 0 and json.loads(out.getvalue())["results"]["palindromes"] == simulcheck.search(10, 2, 10**5)


def test_one_error_class_per_exit_code():
    # exits 2, 3 and 4; the CLI tells bad input apart by ValueError, the
    # base of DomainError
    defined = set()
    for info in pkgutil.iter_modules(simulpal.__path__):
        module = importlib.import_module(f"simulpal.{info.name}")
        defined |= {
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        }
    assert defined == {DomainError, simulcheck.CheckpointMismatchError, precise.UndecidedComparisonError}
    assert issubclass(DomainError, ValueError)


@pytest.mark.parametrize(
    "argv",
    [
        # --precision only on the commands that do certified arithmetic
        ["check", "585", "--bases", "10,2", "--precision", "0"],
        ["bound", "1", "10", "2", "--precision", "0"],
        ["search", "10", "2", "100", "--precision", "0"],
        ["count", "10", "2", "100", "--precision", "0"],
        ["family", "74", "10", "2", "--n-floor", "3"],
    ],
    ids=["check-precision", "bound-precision", "search-precision", "count-precision", "family-n-floor"],
)
def test_unknown_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and "Traceback" not in err and "unrecognized arguments" in err


@pytest.mark.parametrize("command", ["search", "count"])
def test_checkpoint_with_resume_is_usage_error(capsys, tmp_path, command):
    # --resume used to win silently, and the --checkpoint file was never written
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "10", "2", "1e5", "--checkpoint", str(a), "--resume", str(b)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and "Traceback" not in err and "not allowed with argument" in err
    assert not a.exists() and not b.exists()
