import json
import os
import random
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simulpal.palgen import _half_range, mirror_half
from simulpal.radix import DomainError, is_palindrome
from simulpal.simulcheck import (
    CHUNK_HALVES,
    CheckpointMismatchError,
    SearchCheckpoint,
    _scan_chunk,
    count,
    is_palindrome_early_exit,
    plan_enumeration_base,
    search,
)

from conftest import oracle_is_palindrome, oracle_simultaneous


def test_early_exit_examples():
    assert is_palindrome_early_exit is is_palindrome
    assert is_palindrome_early_exit(585, 2)
    assert not is_palindrome_early_exit(6, 2)  # 110: top 1 vs bottom 0
    assert is_palindrome_early_exit(7451111547, 2)
    assert is_palindrome_early_exit(1, 7)
    with pytest.raises(DomainError):
        is_palindrome_early_exit(0, 2)


def test_early_exit_equals_naive_check():
    rng = random.Random(1234)
    for _ in range(20000):
        n = rng.randrange(1, 10**12)
        h = rng.randrange(2, 17)
        assert is_palindrome_early_exit(n, h) == oracle_is_palindrome(n, h)
    # exhaustive small range keeps digit-length boundaries honest
    for n in range(1, 2000):
        for h in (2, 3, 7, 16):
            assert is_palindrome_early_exit(n, h) == oracle_is_palindrome(n, h)


def test_plan_enumeration_base():
    # 1998 decimal palindromes <= 1e6 against 1999 binary ones
    assert plan_enumeration_base(10, 2, 10**6) == 10
    counts = {
        g: sum(1 for n in range(1, 10**5 + 1) if oracle_is_palindrome(n, g)) for g in (2, 3)
    }
    expected = 3 if counts[3] < counts[2] else 2
    assert plan_enumeration_base(3, 2, 10**5) == expected
    # below both bases every integer in range is a palindrome: tie, larger base
    assert plan_enumeration_base(7, 5, 4) == 7


@pytest.mark.parametrize("g,h", [(10, 2), (3, 2), (5, 7)])
def test_search_equals_brute_force(g, h):
    assert search(g, h, 10**4) == oracle_simultaneous(10**4, g, h)


def test_search_trivial_bound():
    assert search(10, 2, 1) == [1]


def test_search_independent_of_enumeration_base():
    for g, h, bound in ((10, 2, 10**6), (3, 2, 10**6), (5, 7, 10**6)):
        via_g = search(g, h, bound, enumeration_base=g)
        via_h = search(g, h, bound, enumeration_base=h)
        assert via_g == via_h


def test_search_parallel_matches_sequential():
    seq = search(10, 2, 10**7, threads=1)
    par = search(10, 2, 10**7, threads=2)
    assert seq == par


def test_count_matches_search():
    assert count(10, 2, 10**5) == 18
    assert count(2, 3, 10**5) == len(search(2, 3, 10**5))


def test_perfect_power_warning():
    with pytest.warns(UserWarning, match="perfect power"):
        search(4, 2, 100)
    with pytest.warns(UserWarning, match="perfect power"):
        search(2, 8, 100)


def test_validation_errors():
    with pytest.raises(DomainError):
        search(10, 10, 100)
    with pytest.raises(DomainError):
        search(10, 2, 0)
    with pytest.raises(DomainError):
        search(10, 2, 100, enumeration_base=3)


def test_checkpoint_roundtrip(tmp_path):
    cp = SearchCheckpoint(g=10, h=2, bound=10**6, enumeration_base=10, cursor=(5, "odd", 999), found=[1, 3])
    path = tmp_path / "cp.json"
    cp.save(str(path))
    loaded = SearchCheckpoint.load(str(path))
    assert loaded == cp
    doc = json.loads(path.read_text())
    assert doc["cursor"] == {"digit_length": 5, "parity": "odd", "half_value": 999}


def test_checkpoint_mismatch(tmp_path):
    path = tmp_path / "cp.json"
    search(10, 2, 10**4, checkpoint_path=str(path))
    with pytest.raises(CheckpointMismatchError):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)
    with pytest.raises(CheckpointMismatchError):
        search(10, 3, 10**4, checkpoint_path=str(path), resume=True)
    with pytest.raises(CheckpointMismatchError):
        search(10, 2, 10**4, checkpoint_path=str(path), resume=True, enumeration_base=2)
    with pytest.raises(CheckpointMismatchError):
        search(10, 2, 10**4, checkpoint_path=str(tmp_path / "absent.json"), resume=True)


def test_resume_of_finished_run_is_stable(tmp_path):
    path = tmp_path / "cp.json"
    first = search(10, 2, 10**5, checkpoint_path=str(path))
    again = search(10, 2, 10**5, checkpoint_path=str(path), resume=True)
    assert first == again == search(10, 2, 10**5)


class _AbortAfter(Exception):
    pass


def interrupted_then_resumed(g, h, bound, kill_after, tmp_path):
    """Kill-and-resume harness: abort after `kill_after` progress events,
    then resume from the checkpoint and run to completion."""
    path = tmp_path / f"cp-{kill_after}.json"
    seen = 0

    def bomb(info):
        nonlocal seen
        seen += 1
        if seen >= kill_after:
            raise _AbortAfter

    aborted = False
    try:
        search(g, h, bound, checkpoint_path=str(path), progress=bomb, checkpoint_interval=0.0)
    except _AbortAfter:
        aborted = True
    assert aborted, "the run was expected to be interrupted"
    return search(g, h, bound, checkpoint_path=str(path), resume=True)


@pytest.mark.parametrize("kill_after", [1, 3, 7])
def test_kill_and_resume_determinism(kill_after, tmp_path):
    reference = search(10, 2, 10**7)
    assert interrupted_then_resumed(10, 2, 10**7, kill_after, tmp_path) == reference


def test_dependent_bases_warning():
    # 4**3 == 8**2: neither base is a power of the other, yet they are dependent
    with pytest.warns(UserWarning, match="bases 4 and 8 are perfect powers of a common base"):
        search(4, 8, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        search(10, 2, 100)
        search(6, 12, 100)


def test_plan_prefers_base_carrying_the_other_primes():
    # base 10 drives (10, 2) at every bound, so the digit walk's pruning applies
    for bound in (10**6, 10**13, 10**18):
        assert plan_enumeration_base(10, 2, bound) == 10
        assert plan_enumeration_base(2, 10, bound) == 10
    assert plan_enumeration_base(12, 8, 10**9) == 12


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    a=st.integers(1, 7),
    b=st.integers(1, 7),
    bound=st.integers(1, 3 * 10**4),
)
def test_digit_walk_matches_oracle_on_bases_sharing_a_prime(p, a, b, bound):
    g, h = p * a, p * b
    assume(g != h)
    expected = oracle_simultaneous(bound, g, h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for base in (g, h):
            assert search(g, h, bound, enumeration_base=base) == expected


@pytest.mark.parametrize("driver,tested,d", [(10, 2, 9), (12, 8, 6), (2, 3, 17)])
def test_scan_chunk_equals_linear_scan_over_any_split(driver, tested, d):
    h0, h1, t, odd = _half_range(driver, d)
    linear = [
        n
        for n in (mirror_half(half, driver, t, odd) for half in range(h0, h1))
        if oracle_is_palindrome(n, tested)
    ]
    rng = random.Random(d)
    edges = sorted({h0, h1, *(rng.randrange(h0, h1) for _ in range(5))})
    pieces = [_scan_chunk(driver, tested, d, c0, c1) for c0, c1 in zip(edges[:-1], edges[1:])]
    assert [n for piece in pieces for n in piece] == linear


def test_kill_and_resume_inside_a_digit_length(tmp_path, known_list_10_2):
    # at 1e11 the 11-digit block spans three chunks; stop after the second
    bound = 10**11
    path = tmp_path / "cp.json"
    seen = []

    def bomb(info):
        seen.append(info["digit_length"])
        if seen.count(11) == 2:
            raise _AbortAfter

    with pytest.raises(_AbortAfter):
        search(10, 2, bound, checkpoint_path=str(path), progress=bomb, checkpoint_interval=0.0)
    cursor = json.loads(path.read_text())["cursor"]
    assert cursor == {"digit_length": 11, "parity": "odd", "half_value": 2 * CHUNK_HALVES + 99_999}
    resumed = search(10, 2, bound, checkpoint_path=str(path), resume=True)
    assert resumed == [n for n in known_list_10_2 if n <= bound]


def _saved_checkpoint(tmp_path, **edits):
    path = tmp_path / "cp.json"
    search(10, 2, 10**5, checkpoint_path=str(path))
    doc = json.loads(path.read_text())
    doc.update(edits)
    path.write_text(json.dumps(doc))
    return path, doc


def test_checkpoint_missing_key_is_refused(tmp_path):
    path, doc = _saved_checkpoint(tmp_path)
    del doc["found"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointMismatchError, match="damaged"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_wrong_type_is_refused(tmp_path):
    path, _ = _saved_checkpoint(tmp_path, bound="100000")
    with pytest.raises(CheckpointMismatchError, match="damaged"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_truncated_json_is_refused(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    path.write_text(path.read_text()[:40])
    with pytest.raises(CheckpointMismatchError, match="damaged"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_non_json_is_refused(tmp_path):
    path = tmp_path / "cp.json"
    path.write_bytes(b"\xff\xfe not a checkpoint")
    with pytest.raises(CheckpointMismatchError):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)
    path.write_text("cursor = 7\n")
    with pytest.raises(CheckpointMismatchError, match="damaged"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_tampered_found_is_refused(tmp_path):
    # 4 is no palindrome in base 2 (100)
    path, _ = _saved_checkpoint(tmp_path, found=[4], complete=False)
    with pytest.raises(CheckpointMismatchError, match="not a palindrome"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_entry_beyond_cursor_is_refused(tmp_path):
    # 585 is a simultaneous palindrome, but the cursor says only length 1 was scanned
    cursor = {"digit_length": 1, "parity": "odd", "half_value": 9}
    path, _ = _saved_checkpoint(tmp_path, found=[1, 585], complete=False, cursor=cursor)
    with pytest.raises(CheckpointMismatchError, match="beyond the cursor"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_cursor_outside_the_bound_is_refused(tmp_path):
    # refused before any power of the base is built for the absurd length
    cursor = {"digit_length": 10**9, "parity": "even", "half_value": 10}
    path, _ = _saved_checkpoint(tmp_path, cursor=cursor, complete=False)
    with pytest.raises(CheckpointMismatchError, match="does not fit the bound"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_cursor_beyond_the_bound_is_refused(tmp_path):
    # 999999 has as many digits as the bound 10**5 + 1 but exceeds it; resuming
    # would return the simultaneous palindrome 585585 above the bound
    path = tmp_path / "cp.json"
    cp = SearchCheckpoint(g=10, h=2, bound=10**5 + 1, enumeration_base=10, cursor=(6, "even", 999))
    cp.found = search(10, 2, 10**6)
    cp.save(str(path))
    with pytest.raises(CheckpointMismatchError, match="beyond the bound"):
        search(10, 2, 10**5 + 1, checkpoint_path=str(path), resume=True)


@pytest.mark.parametrize("cursor", [None, (3, "odd", 31), (6, "even", 998)])
def test_checkpoint_complete_before_the_last_palindrome_is_refused(tmp_path, cursor):
    # found agrees with the cursor, so only the complete flag is wrong; resuming
    # such a file would return only the hits up to the cursor (8 of 19 for 313)
    path = tmp_path / "cp.json"
    reached = SearchCheckpoint(g=10, h=2, bound=10**6, enumeration_base=10, cursor=cursor)._processed()
    found = [n for n in search(10, 2, 10**6) if n <= reached]
    SearchCheckpoint(
        g=10, h=2, bound=10**6, enumeration_base=10, cursor=cursor, found=found, complete=True
    ).save(str(path))
    with pytest.raises(CheckpointMismatchError, match="not at the last palindrome"):
        search(10, 2, 10**6, checkpoint_path=str(path), resume=True)


@pytest.mark.parametrize("bound", [1, 9, 10, 11, 100, 12345, 10**6])
@pytest.mark.parametrize("driver", [10, 2])
def test_checkpoint_of_a_finished_run_is_accepted(tmp_path, bound, driver):
    # the cursor a finished run leaves is the one a complete file must carry
    path = tmp_path / "cp.json"
    first = search(10, 2, bound, checkpoint_path=str(path), enumeration_base=driver)
    assert json.loads(path.read_text())["complete"] is True
    assert search(10, 2, bound, checkpoint_path=str(path), resume=True) == first


@pytest.mark.parametrize("bound", [1e4, "10000", True])
def test_search_rejects_a_bound_that_is_not_an_integer(tmp_path, bound):
    # a float bound would go into the checkpoint, whose resume refuses it
    path = tmp_path / "cp.json"
    with pytest.raises(DomainError, match="integer"):
        search(10, 2, bound, checkpoint_path=str(path))
    assert not path.exists()


def test_checkpoint_save_syncs_before_rename(tmp_path, monkeypatch):
    calls = []

    def spy(name):
        real = getattr(os, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(os, name, wrapper)

    spy("fsync")
    spy("replace")
    SearchCheckpoint(g=10, h=2, bound=100, enumeration_base=10).save(str(tmp_path / "cp.json"))
    assert calls == ["fsync", "replace"]
