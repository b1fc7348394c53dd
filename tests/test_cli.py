import json
import os
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

from simulpal import cli
from simulpal.radix import DomainError


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


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],  # truncated
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "cursor"}),
        lambda text: json.dumps({**json.loads(text), "found": [4], "complete": False}),
    ],
    ids=["truncated", "missing-key", "tampered-found"],
)
def test_damaged_checkpoint_exit_code(capsys, tmp_path, damage):
    path = tmp_path / "cp.json"
    run(capsys, "search", "10", "2", "1e5", "--checkpoint", str(path))
    path.write_text(damage(path.read_text()))
    code, out, err = run(capsys, "search", "10", "2", "1e5", "--resume", str(path))
    assert code == 3 and err.startswith("checkpoint error") and out == ""


def test_complete_checkpoint_with_an_early_cursor_exit_code(capsys, tmp_path):
    path = tmp_path / "cp.json"
    run(capsys, "count", "10", "2", "1e6", "--checkpoint", str(path))
    doc = json.loads(path.read_text())
    doc["cursor"] = {"digit_length": 3, "parity": "odd", "half_value": 31}
    doc["found"] = [n for n in doc["found"] if n <= 313]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "count", "10", "2", "1e6", "--resume", str(path))
    assert code == 3 and "last palindrome" in err and out == ""


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
    ],
)
def test_bad_input_exits_with_documented_code(capsys, argv, code):
    with deadline(30):
        got, out, err = run(capsys, *argv)
    assert got == code
    assert out == "" and "Traceback" not in err and len(err.splitlines()) == 1


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
