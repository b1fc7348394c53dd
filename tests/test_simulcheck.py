import json
import os
import random
import tempfile
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from math import gcd, inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simulpal import palgen, simulcheck
from simulpal.palgen import iter_palindromes
from simulpal.radix import DomainError, is_palindrome
from simulpal.simulcheck import (
    CheckpointMismatchError,
    SearchCheckpoint,
    _level_hits,
    _scan_chunk,
    count,
    plan_enumeration_base,
    search,
)

from conftest import V1_CHECKPOINT, oracle_digits, oracle_is_palindrome, oracle_reverse, oracle_simultaneous


def test_early_exit_examples():
    assert is_palindrome(585, 2)
    assert not is_palindrome(6, 2)  # 110: top 1 vs bottom 0
    assert is_palindrome(7451111547, 2)
    assert is_palindrome(1, 7)
    with pytest.raises(DomainError):
        is_palindrome(0, 2)


def test_early_exit_equals_naive_check():
    rng = random.Random(1234)
    for _ in range(20000):
        n = rng.randrange(1, 10**12)
        h = rng.randrange(2, 17)
        assert is_palindrome(n, h) == oracle_is_palindrome(n, h)
    # exhaustive small range keeps digit-length boundaries honest
    for n in range(1, 2000):
        for h in (2, 3, 7, 16):
            assert is_palindrome(n, h) == oracle_is_palindrome(n, h)


def test_plan_enumeration_base(monkeypatch):
    # one rule from the bases alone: the larger share log(c_b) / log(b) drives,
    # c_b being b without the other base's primes; equal shares go to the
    # smaller base unless it is 2
    def no_counts(*args):
        raise AssertionError("the planner counts no palindromes")

    monkeypatch.setattr(palgen, "count_palindromes_upto", no_counts)
    monkeypatch.setattr(simulcheck, "count_palindromes_upto", no_counts, raising=False)
    examples = {
        (20, 22): 22,  # 5 of 20 against 11 of 22
        (6, 20): 6,
        (10, 28): 10,
        (6, 10): 10,
        (12, 18): 12,  # the same primes: both shares 0
        (2, 4): 4,
        (10, 2): 10,
        (12, 8): 12,
        (2, 3): 3,
        (3, 4): 3,
    }
    for (g, h), driver in examples.items():
        for bound in (4, 10**5, 10**14, 10**30):
            assert plan_enumeration_base(g, h, bound) == plan_enumeration_base(h, g, bound) == driver
    # symmetric in (g, h), and the same at every bound
    for g in range(2, 41):
        for h in range(g + 1, 41):
            drivers = {
                plan_enumeration_base(a, b, bound) for a, b in ((g, h), (h, g)) for bound in (4, 10**5, 10**14, 10**30)
            }
            assert len(drivers) == 1 and drivers <= {g, h}


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


class _BatchRecordingPool(ProcessPoolExecutor):
    """A real process pool that records the batch size of each map."""

    batches: list[int] = []

    def map(self, fn, *iterables, chunksize=1):
        self.batches.append(chunksize)
        return super().map(fn, *iterables, chunksize=chunksize)


def test_search_parallel_matches_sequential(monkeypatch, known_list_10_2):
    # units of the walk of 10 integers cut the 9-digit (10, 2) length into the
    # 90 prefixes of depth 2 and the 19-digit base-3 length into the 162 of
    # depth 5, so the pool runs and gets them in batches of more than one
    monkeypatch.setattr(simulcheck, "UNIT_INTEGERS", 10)
    monkeypatch.setattr(simulcheck, "usable_cpus", lambda: 2)
    monkeypatch.setattr(simulcheck, "ProcessPoolExecutor", _BatchRecordingPool)
    monkeypatch.setattr(_BatchRecordingPool, "batches", [])
    expected = {(10, 2): [n for n in known_list_10_2 if n <= 10**9], (2, 3): [1, 6643, 1422773, 5415589]}
    for (g, h), listed in expected.items():
        seq = search(g, h, 10**9, threads=1)
        par = search(g, h, 10**9, threads=2)
        assert seq == par == listed
    assert max(_BatchRecordingPool.batches) > 1


def test_progress_events_of_a_search_to_1e12():
    # one unit for each length of at most UNIT_INTEGERS integers; the
    # benchmark's harness keeps a mark per event
    events = []
    assert len(search(10, 2, 10**12, progress=events.append)) == 38
    assert len(events) <= 16
    last_of_length = {e["digit_length"]: e for e in events}
    assert sorted(last_of_length) == list(range(1, 13))
    for d, e in last_of_length.items():
        assert e["cursor"] == e["length_end"] == 10**d - 1
    assert [e["cursor"] for e in events] == sorted({e["cursor"] for e in events})


def test_a_second_identical_search_builds_no_crt_entry(monkeypatch):
    built = 0
    real = simulcheck._crt_entry

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(simulcheck, "_crt_entry", counting)
    simulcheck._tables.cache_clear()  # earlier tests of this process may have built them
    for g, h, bound in ((10, 2, 10**14), (2, 3, 10**12), (17, 23, 10**9)):
        built = 0
        first = search(g, h, bound)
        assert built > 0
        built = 0
        assert search(g, h, bound) == first and built == 0


@settings(max_examples=60, deadline=None)
@given(
    g=st.integers(2, 16),
    calls=st.lists(st.tuples(st.integers(2, 16), st.integers(1, 6000), st.booleans()), min_size=2, max_size=5),
)
def test_interleaved_searches_share_tables_per_process(g, calls):
    # searches with one base in common, in any order, in one process: the
    # tables of one (driver, tested, d) must serve each later search, whatever
    # the other base, the bound or the parity of the lengths
    for h, bound, drive_g in calls:
        if h == g:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            found = search(g, h, bound, enumeration_base=g if drive_g else h)
        assert found == oracle_simultaneous(bound, g, h)


def test_count_matches_search():
    assert count(10, 2, 10**5) == 18
    assert count(2, 3, 10**5) == len(search(2, 3, 10**5))


def test_perfect_power_warning():
    with pytest.warns(UserWarning, match="perfect power"):
        search(4, 2, 100)
    with pytest.warns(UserWarning, match="perfect power"):
        search(2, 8, 100)


def test_validation_errors(tmp_path):
    with pytest.raises(DomainError):
        search(10, 10, 100)
    with pytest.raises(DomainError):
        search(10, 2, 0)
    with pytest.raises(DomainError):
        search(10, 2, 100, enumeration_base=3)
    # 2.0 == 2 passed the membership test, and the run failed only after a checkpoint write
    path = tmp_path / "cp.json"
    with pytest.raises(DomainError, match="base must be an integer"):
        search(10, 2, 100, enumeration_base=2.0, checkpoint_path=str(path))
    assert not path.exists()
    # an empty path named the parent of the working directory for the temp file
    for resume in (False, True):
        with pytest.raises(DomainError, match="checkpoint path"):
            search(10, 2, 100, checkpoint_path="", resume=resume)


def test_checkpoint_roundtrip(tmp_path):
    cp = SearchCheckpoint(g=10, h=2, bound=10**6, cursor=99999, found=[1, 3])
    path = tmp_path / "cp.json"
    cp.save(str(path))
    loaded = SearchCheckpoint.load(str(path))
    assert loaded == cp
    doc = json.loads(path.read_text())
    assert list(doc) == ["version", "g", "h", "bound", "cursor", "hits", "found", "checksum"]
    assert doc["version"] == "simulpal-checkpoint-v2"
    assert type(doc["cursor"]) is int and doc["cursor"] == 99999 and doc["hits"] == 2


def test_checkpoint_mismatch(tmp_path):
    path = tmp_path / "cp.json"
    search(10, 2, 10**4, checkpoint_path=str(path))
    with pytest.raises(CheckpointMismatchError):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)
    with pytest.raises(CheckpointMismatchError):
        search(10, 3, 10**4, checkpoint_path=str(path), resume=True)
    with pytest.raises(CheckpointMismatchError):
        search(10, 2, 10**4, checkpoint_path=str(tmp_path / "absent.json"), resume=True)
    # the cursor does not depend on the driving base, so another one may resume
    expected = search(10, 2, 10**4)
    assert search(10, 2, 10**4, checkpoint_path=str(path), resume=True, enumeration_base=2) == expected


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


@settings(max_examples=60, deadline=None)
@given(
    pair=st.sampled_from([(10, 2), (2, 10), (12, 8), (6, 4), (9, 6), (6, 10), (20, 22), (3, 2), (5, 7), (10, 3)]),
    bound=st.integers(1, 2 * 10**4),
    kill_after=st.integers(1, 6),
    first=st.booleans(),
    second=st.booleans(),
)
def test_kill_and_resume_across_enumeration_bases_matches_oracle(tmp_path_factory, pair, bound, kill_after, first, second):
    # pairs sharing a prime (in (6, 10) and (20, 22) each base has a prime the
    # other lacks), then coprime ones; each run picks its driving base
    g, h = pair
    path = tmp_path_factory.mktemp("cp") / "cp.json"
    seen = 0

    def bomb(info):
        nonlocal seen
        seen += 1
        if seen == kill_after:
            raise _AbortAfter

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            search(g, h, bound, enumeration_base=pair[first], checkpoint_path=str(path), progress=bomb)
        except _AbortAfter:
            pass
        resumed = search(g, h, bound, enumeration_base=pair[second], checkpoint_path=str(path), resume=True)
    assert resumed == oracle_simultaneous(bound, g, h)


def test_dependent_bases_warning():
    # 4**3 == 8**2: neither base is a power of the other, yet they are dependent
    with pytest.warns(UserWarning, match="bases 4 and 8 are perfect powers of a common base"):
        search(4, 8, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        search(10, 2, 100)
        search(6, 12, 100)


def test_plan_prefers_base_carrying_the_other_primes():
    # when every prime of one base divides the other but not conversely, the
    # base with the extra primes drives, so the digit walk's pruning applies;
    # of two coprime bases the smaller drives, unless it is 2
    for g in range(2, 61):
        for h in range(2, 61):
            # every prime of h divides g iff h divides g**h
            h_in_g = pow(g, h, h) == 0
            g_in_h = pow(h, g, g) == 0
            if h_in_g and not g_in_h:
                assert plan_enumeration_base(g, h, 10**18) == plan_enumeration_base(h, g, 10**6) == g
            elif gcd(g, h) == 1:
                expected = max(g, h) if min(g, h) == 2 else min(g, h)
                assert plan_enumeration_base(g, h, 10**13) == expected


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


@pytest.mark.parametrize(
    "driver,tested,d",
    [
        (10, 2, 9), (12, 8, 6), (2, 3, 17), (11, 13, 7), (3, 2, 15), (16, 2, 9),
        # bases sharing primes with other multiplicities; the walk steps by 3
        # in (12, 18, 5) and by 5 in (35, 25, 5)
        (12, 18, 7), (18, 12, 7), (20, 50, 6), (6, 4, 9), (12, 18, 5), (35, 25, 5),
        # h + 1 shares a prime with g in the first three; the last two drop every
        # node, since an even-length palindrome in one base would end in 0 in the other
        (12, 2, 8), (6, 2, 10), (4, 3, 10), (2, 3, 16), (3, 2, 14),
    ],
)
def test_scan_chunk_equals_linear_scan_over_any_split(driver, tested, d):
    # cut the d-digit integers at random points, palindromes or not
    n0, n1 = driver ** (d - 1), driver**d
    linear = [n for n in iter_palindromes(driver, n0, n1 - 1) if oracle_is_palindrome(n, tested)]
    rng = random.Random(d)
    edges = sorted({n0, n1, *(rng.randrange(n0, n1) for _ in range(5))})
    pieces = [_scan_chunk(driver, tested, d, c0, c1) for c0, c1 in zip(edges[:-1], edges[1:])]
    assert [n for piece in pieces for n in piece] == linear


@settings(max_examples=200, deadline=None)
@given(
    # coprime pairs, then pairs that share a prime
    pair=st.sampled_from([(2, 3), (3, 5), (10, 3), (11, 13), (10, 2), (12, 18), (6, 10), (20, 22), (6, 4)]),
    drive_first=st.booleans(),
    data=st.data(),
)
def test_scan_chunk_matches_oracle_across_powers_of_the_tested_base(pair, drive_first, data):
    # the ends fall on a power of h or next to one, and a power of h lies inside,
    # so the interval spans two or more base-h lengths and the walk runs once per length
    g, h = pair if drive_first else pair[::-1]
    d = data.draw(st.integers(2, 2 * max(t for t in range(1, 16) if g**t <= 10_000)), label="d")
    n0, n1 = g ** (d - 1), g**d
    powers = [h**i for i in range(1, n1.bit_length()) if n0 < h**i < n1]
    assume(powers)
    ends = sorted({min(max(p + e, n0), n1) for p in powers for e in (-1, 0, 1)} | {n0, n1})
    inside = data.draw(st.sampled_from(powers), label="inside")
    n_lo = data.draw(st.sampled_from([x for x in ends if x < inside]), label="n_lo")
    n_hi = data.draw(st.sampled_from([x for x in ends if x > inside]), label="n_hi")
    expected = [n for n in _palindromes(g, d) if n_lo <= n < n_hi and oracle_is_palindrome(n, h)]
    assert _scan_chunk(g, h, d, n_lo, n_hi) == expected


def _palindromes(g, d):
    # every d-digit base-g palindrome, ascending, built from its top t digits and checked by the oracle
    t = (d + 1) // 2
    pals = [x * g ** (d - t) + oracle_reverse(x // g if d % 2 else x, g) for x in range(g ** (t - 1), g**t)]
    assert all(oracle_is_palindrome(n, g) for n in pals)
    return pals


@settings(max_examples=300, deadline=None)
@given(
    # base 2 tested, then other tested bases with both drivers
    pair=st.sampled_from(
        [(10, 2), (3, 2), (6, 2), (12, 2), (16, 2), (20, 22), (22, 20), (3, 5), (5, 3), (12, 18), (18, 12)]
    ),
    data=st.data(),
)
def test_scan_chunk_matches_oracle_over_cuts_inside_nodes(pair, data):
    # cuts at random points of one driver length fall inside nodes of every
    # depth, not only near powers of h: the walk must clamp the nodes they cut
    # and leave the others whole, test each listed number's next driver digit
    # pair and then its middle driver digits, and skip the test of a block that
    # leaves no middle base-h digits
    g, h = pair
    d = data.draw(st.integers(2, 2 * max(t for t in range(1, 16) if g**t <= 30_000)), label="d")
    n0, n1 = g ** (d - 1), g**d
    edges = sorted({n0, n1, *data.draw(st.lists(st.integers(n0, n1), max_size=4), label="cuts")})
    pieces = [_scan_chunk(g, h, d, c0, c1) for c0, c1 in zip(edges[:-1], edges[1:])]
    assert [n for piece in pieces for n in piece] == [n for n in _palindromes(g, d) if oracle_is_palindrome(n, h)]


def test_kill_and_resume_inside_a_digit_length(monkeypatch, tmp_path, known_list_10_2):
    # units of 10**8 integers' walk cut the 11-digit length at depth k = 1,
    # since 10**3 * UNIT_INTEGERS <= 10**11 < 10**6 * UNIT_INTEGERS: nine
    # units of 10**10 integers; stop after the second
    monkeypatch.setattr(simulcheck, "UNIT_INTEGERS", 10**8)
    bound = 10**11
    assert 10**3 * simulcheck.UNIT_INTEGERS <= bound < 10**6 * simulcheck.UNIT_INTEGERS
    path = tmp_path / "cp.json"
    seen = []

    def bomb(info):
        seen.append(info["digit_length"])
        if seen.count(11) == 2:
            raise _AbortAfter

    with pytest.raises(_AbortAfter):
        search(10, 2, bound, checkpoint_path=str(path), progress=bomb, checkpoint_interval=0.0)
    # the second unit's last integer; a unit of depth k = 1 spans 10**(11 - 1) integers
    cursor = 10**10 + 2 * 10 ** (11 - 1) - 1
    assert json.loads(path.read_text())["cursor"] == cursor == 29_999_999_999
    resumed = search(10, 2, bound, checkpoint_path=str(path), resume=True)
    assert resumed == [n for n in known_list_10_2 if n <= bound]


@pytest.mark.parametrize("g,h,bound,seed", [(10, 2, 10**11, 1), (10, 2, 10**11, 2), (2, 3, 10**12, 3), (12, 18, 10**10, 4)])
def test_kill_at_a_random_unit_and_resume_off_the_prefix_edges(monkeypatch, tmp_path, g, h, bound, seed):
    # one grain kills the run at a random unit; another resumes it, so the
    # resumed run's first unit starts at cursor + 1, which is none of its prefix edges
    def unit_ends(unit_integers):
        monkeypatch.setattr(simulcheck, "UNIT_INTEGERS", unit_integers)
        events = []
        found = search(g, h, bound, progress=events.append)
        return found, [e["cursor"] for e in events if e["cursor"] < e["length_end"]]

    expected = search(g, h, bound)
    (killing, killing_ends), (resuming, resuming_ends) = unit_ends(10**2), unit_ends(10**6)
    assert killing == resuming == expected
    # cursor + 1 lies inside a length (a unit end below its last integer) and is no unit start of the resuming grain
    cursor = random.Random(seed).choice(sorted(set(killing_ends) - set(resuming_ends)))
    path = tmp_path / "cp.json"

    def bomb(info):
        if info["cursor"] == cursor:
            raise _AbortAfter

    monkeypatch.setattr(simulcheck, "UNIT_INTEGERS", 10**2)
    with pytest.raises(_AbortAfter):
        search(g, h, bound, checkpoint_path=str(path), progress=bomb)
    assert json.loads(path.read_text())["cursor"] == cursor
    monkeypatch.setattr(simulcheck, "UNIT_INTEGERS", 10**6)
    assert search(g, h, bound, checkpoint_path=str(path), resume=True) == expected


def test_checkpoint_with_a_palindrome_cursor_mid_length_resumes(tmp_path, known_list_10_2):
    # earlier releases left the cursor on the last palindrome of a chunk: here
    # the one after two 11-digit chunks of 400 000 halves each
    bound = 10**11
    path = tmp_path / "cp.json"
    cursor = 89_999_999_998
    shipped = [n for n in known_list_10_2 if n <= bound]
    SearchCheckpoint(g=10, h=2, bound=bound, cursor=cursor, found=[n for n in shipped if n <= cursor]).save(str(path))
    assert search(10, 2, bound, checkpoint_path=str(path), resume=True) == shipped


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
    # text that is not JSON, then JSON documents that are not objects, the
    # last nested too deep for the parser (a RecursionError, not a ValueError)
    for text in ("cursor = 7\n", "[]", "7", '"cursor"', "null", "[" * 100_000 + "]" * 100_000):
        path.write_text(text)
        with pytest.raises(CheckpointMismatchError, match="damaged"):
            search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


@pytest.mark.parametrize(
    "doc",
    [
        V1_CHECKPOINT,
        # a v2-shaped document under another version is refused by its version
        {"version": "simulpal-checkpoint-v0", "g": 10, "h": 2, "bound": 10**5, "cursor": 0, "hits": 0, "found": []},
    ],
    ids=["v1-shaped", "v2-shaped"],
)
def test_checkpoint_of_another_version_is_refused(tmp_path, doc):
    path = tmp_path / "cp.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointMismatchError, match=f"unsupported checkpoint version '{doc['version']}'"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_tampered_found_is_refused(tmp_path):
    # 4 is no palindrome in base 2 (100); entries are checked before the count
    path, _ = _saved_checkpoint(tmp_path, found=[4])
    with pytest.raises(CheckpointMismatchError, match="not a palindrome"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_with_a_deleted_hit_is_refused(tmp_path):
    # 585 dropped from the hits up to 999; every entry left is sound
    found = [1, 3, 5, 7, 9, 33, 99, 313, 717]
    path, _ = _saved_checkpoint(tmp_path, cursor=999, hits=10, found=found)
    with pytest.raises(CheckpointMismatchError, match="10 hits recorded, but found lists 9"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_entry_beyond_cursor_is_refused(tmp_path):
    # 585 is a simultaneous palindrome, but the cursor says only length 1 was scanned
    path, _ = _saved_checkpoint(tmp_path, found=[1, 585], hits=2, cursor=9)
    with pytest.raises(CheckpointMismatchError, match="beyond the cursor"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_with_a_cursor_moved_on_is_refused(tmp_path):
    # one byte, a space made a digit, turned cursor 5000 into 15000: every other field still agreed, and the
    # resumed run skipped 7447 and 9009
    path = tmp_path / "cp.json"
    SearchCheckpoint(10, 2, 10**5, 5000, search(10, 2, 5000)).save(str(path))
    path.write_text(path.read_text().replace('"cursor": 5000', '"cursor":15000'))
    with pytest.raises(CheckpointMismatchError, match="does not match its checksum"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)
    # a key renamed stands in for no checksum, which only a file of an earlier release may lack
    path.write_text(path.read_text().replace('"checksum"', '"checksuM"'))
    with pytest.raises(CheckpointMismatchError, match="does not match its checksum"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_of_an_earlier_release_resumes_without_a_checksum(tmp_path):
    path, doc = _saved_checkpoint(tmp_path, cursor=999, hits=10, found=search(10, 2, 999))
    del doc["checksum"]
    path.write_text(json.dumps(doc))
    assert search(10, 2, 10**5, checkpoint_path=str(path), resume=True) == search(10, 2, 10**5)


def test_checkpoint_cursor_outside_the_bound_is_refused(tmp_path):
    path, _ = _saved_checkpoint(tmp_path, cursor=-1, hits=0, found=[])
    with pytest.raises(CheckpointMismatchError, match="cursor -1 does not fit the bound"):
        search(10, 2, 10**5, checkpoint_path=str(path), resume=True)


def test_checkpoint_cursor_beyond_the_bound_is_refused(tmp_path):
    # resuming at 999999 > 10**5 + 1 would return the simultaneous palindrome
    # 585585 above the bound
    path = tmp_path / "cp.json"
    found = search(10, 2, 10**6)
    SearchCheckpoint(g=10, h=2, bound=10**5 + 1, cursor=999999, found=found).save(str(path))
    with pytest.raises(CheckpointMismatchError, match="cursor 999999 does not fit the bound 100001"):
        search(10, 2, 10**5 + 1, checkpoint_path=str(path), resume=True)


@pytest.mark.parametrize("cursor", [0, 313, 314, 998899, 998900, 999998])
@pytest.mark.parametrize("base", [10, 2])
def test_checkpoint_with_an_early_cursor_resumes_to_the_full_list(tmp_path, cursor, base):
    # found and hits agree with the cursor; the run goes on past it in either
    # base; a cursor is any integer covered so far, a palindrome or not
    path = tmp_path / "cp.json"
    full = search(10, 2, 10**6)
    early = SearchCheckpoint(g=10, h=2, bound=10**6, cursor=cursor, found=[n for n in full if n <= cursor])
    early.save(str(path))
    assert search(10, 2, 10**6, checkpoint_path=str(path), resume=True, enumeration_base=base) == full
    assert json.loads(path.read_text())["cursor"] == 10**6


@pytest.mark.parametrize("bound", [1, 9, 10, 11, 100, 12345, 10**6])
@pytest.mark.parametrize("driver", [10, 2])
def test_checkpoint_of_a_finished_run_is_accepted(tmp_path, bound, driver):
    # a finished run leaves the cursor at the bound, whichever base drove it
    path = tmp_path / "cp.json"
    first = search(10, 2, bound, checkpoint_path=str(path), enumeration_base=driver)
    doc = json.loads(path.read_text())
    assert doc["cursor"] == bound and doc["hits"] == len(first)
    assert search(10, 2, bound, checkpoint_path=str(path), resume=True) == first


@pytest.mark.parametrize("bound", [1e4, "10000", True])
def test_search_rejects_a_bound_that_is_not_an_integer(tmp_path, bound):
    # a float bound would go into the checkpoint, whose resume refuses it
    path = tmp_path / "cp.json"
    with pytest.raises(DomainError, match="integer"):
        search(10, 2, bound, checkpoint_path=str(path))
    assert not path.exists()


@pytest.mark.parametrize("interval", [float("nan"), -1.0, -inf, None, "300"])
def test_search_rejects_a_checkpoint_interval_that_is_nan_or_negative(tmp_path, interval):
    # NaN compares false with every elapsed time and would turn the interval
    # writes off; a negative interval would write after every chunk; None and
    # a string are no number at all
    path = tmp_path / "cp.json"
    with pytest.raises(DomainError, match="checkpoint interval must be a number >= 0"):
        search(10, 2, 10**4, checkpoint_path=str(path), checkpoint_interval=interval)
    assert not path.exists()
    # zero writes after every chunk, infinity only after each digit length
    for accepted in (0, inf):
        assert search(10, 2, 10**4, checkpoint_path=str(path), checkpoint_interval=accepted) == search(10, 2, 10**4)


@pytest.mark.parametrize("progress", [5, "print"])
def test_search_rejects_a_progress_that_is_not_callable(tmp_path, progress):
    # it was called only after the first unit, as a bare TypeError
    path = tmp_path / "cp.json"
    with pytest.raises(DomainError, match="progress must be None or callable"):
        search(10, 2, 100, checkpoint_path=str(path), progress=progress)
    assert not path.exists()


@pytest.mark.parametrize("bound, top", [(10**12, 12), (10**12 + 1, 13)])
def test_search_skips_a_top_length_without_palindromes(tmp_path, bound, top):
    # at a power of the driver the top length holds the one integer 10**12,
    # below the least 13-digit palindrome 10**12 + 1: no unit runs there, yet
    # the run still ends at the bound with a final checkpoint write
    path = tmp_path / "cp.json"
    events = []
    found = search(10, 2, bound, checkpoint_path=str(path), progress=events.append)
    assert events[-1]["digit_length"] == top
    assert found == search(10, 2, 10**12 - 1)
    doc = json.loads(path.read_text())
    assert doc["cursor"] == bound and doc["found"] == found


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("threads,cpus,workers", [(100_000, 2, 2), (3, 4, 3), (2, 1, None)])
def test_threads_capped_at_the_usable_cpus(monkeypatch, threads, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(simulcheck, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    # 1e11 gives the 11-digit block three chunks, so the pool's map runs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = search(10, 2, 10**11, threads=threads)
    assert found == search(10, 2, 10**11)
    assert _InProcessPool.sizes == ([] if workers is None else [workers])
    expected = [f"threads={threads} capped at {cpus}, the CPUs this process may use"] if threads > cpus else []
    assert [str(w.message) for w in caught] == expected


@pytest.mark.parametrize("threads", [2.5, "2", True])
def test_search_rejects_a_thread_count_that_is_not_an_integer(threads):
    # a float reached the process pool and a string the comparison with 1,
    # each as a bare TypeError
    with pytest.raises(DomainError, match="integer count of at least one worker"):
        search(10, 2, 10**4, threads=threads)


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
    SearchCheckpoint(g=10, h=2, bound=100).save(str(tmp_path / "cp.json"))
    assert calls == ["fsync", "replace"]


def test_unwritable_checkpoint_is_tried_once(monkeypatch):
    calls = []
    real = tempfile.mkstemp

    def counting_mkstemp(*args, **kwargs):
        calls.append(kwargs.get("dir"))
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", counting_mkstemp)
    with pytest.raises(CheckpointMismatchError, match="cannot write checkpoint"):
        search(10, 2, 10**5, checkpoint_path="/nonexistent/dir/cp.json")
    assert calls == ["/nonexistent/dir"]


@settings(max_examples=150, deadline=None)
@given(
    g=st.integers(2, 40),
    h=st.integers(2, 40),
    shared=st.sampled_from([1, 2, 3, 5]),
    bound=st.integers(1, 3 * 10**4),
    drive_g=st.booleans(),
)
def test_search_matches_oracle_on_coprime_and_prime_sharing_pairs(g, h, shared, bound, drive_g):
    # shared == 1 draws coprime pairs; otherwise both bases carry that prime
    if shared == 1:
        assume(gcd(g, h) == 1)
    else:
        g, h = g * shared, h * shared
    assume(g != h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        found = search(g, h, bound, enumeration_base=g if drive_g else h)
    assert found == oracle_simultaneous(bound, g, h)


def _counting_walk(monkeypatch):
    # a child's residue check is the walk's only divmod call (a mirror wider than
    # the table is reversed without one), so against any base the calls of divmod
    # from simulcheck count its children; calls[b] counts the _mirror_test calls in base b
    calls = Counter()
    real_test = simulcheck._mirror_test

    def counting(n, m):
        calls["children"] += 1
        return divmod(n, m)

    def mirror_test(n, h, k, p):
        calls[h] += 1
        return real_test(n, h, k, p)

    monkeypatch.setattr(simulcheck, "divmod", counting, raising=False)
    monkeypatch.setattr(simulcheck, "_mirror_test", mirror_test)
    return calls


def _recording_leaves(monkeypatch):
    # the runs each level hands to its one pass, in order
    runs = []
    real = simulcheck._level_hits

    def recording(level, *args):
        runs.extend(level)
        return real(level, *args)

    monkeypatch.setattr(simulcheck, "_level_hits", recording)
    return runs


def test_walk_skips_the_digits_its_residue_rules_out(monkeypatch):
    calls = _counting_walk(monkeypatch)
    for g, h, hits, most in [
        # a node in one base-2 length fixes its children's last bit, so the walk
        # steps over half of them; visiting every child took 17 291 reversals,
        # and listing without the multiples of 11 and 33 took 9 326
        (10, 2, 38, 6_500),
        # every node of even length in base 2 or 3 is dropped; without that the
        # walk took 89 973 reversals driven by 2 and 73 899 driven by 3
        (2, 3, 5, 35_000),
    ]:
        calls.clear()
        assert len(search(g, h, 10**12, threads=1)) == hits
        assert 0 < calls["children"] <= most


def test_walk_counts_of_search_10_2_and_2_3(monkeypatch):
    # a child makes one divmod call; each level's listed numbers go to one pass.
    # A number takes one bin call, counted by whether its level has a driving-base
    # digit pair (w >= 2), only past that pair, and one _mirror_test call on its w
    # middle driving-base digits only past both; split at their middle bit, the
    # base-2 leaves listed 6 675 and 343 723 numbers, and 138 and 779 took a full test
    calls = _counting_walk(monkeypatch)
    runs = _recording_leaves(monkeypatch)
    counted, paired = simulcheck._level_hits, []

    def level(level_runs, js, g, h, d, k, L):
        paired.append(d - 2 * k >= 2)
        return counted(level_runs, js, g, h, d, k, L)

    def binary(n):
        calls["past the pair" if paired[-1] else "unpaired"] += 1
        return bin(n)

    monkeypatch.setattr(simulcheck, "_level_hits", level)
    monkeypatch.setattr(simulcheck, "bin", binary, raising=False)
    for g, h, bound, hits, walk in [
        (10, 2, 10**12, 38, (3_642, 11_489, 1_536, 435, {10: 14})),
        (2, 3, 10**16, 5, (170_382, 614_570, 204_838, 2, {3: 244})),
    ]:
        calls.clear()
        runs.clear()
        assert len(search(g, h, bound)) == hits
        counts = [calls.pop(key) for key in ("children", "past the pair", "unpaired")]
        assert (counts[0], sum(map(len, runs)), *counts[1:], dict(calls)) == walk


@pytest.mark.parametrize(
    "g,h,bound", [(10, 2, 10**12), (2, 3, 10**12), (11, 13, 10**10), (12, 18, 10**10), (20, 22, 10**10)]
)
def test_mirrors_wider_than_the_table_match_the_table(monkeypatch, known_list_10_2, g, h, bound):
    # with the mirror table cut to width 0, every child that adds a digit reverses
    # its new digits itself: under each driver the hits and the walk must be those
    # of the full table, and the hits those of the oracle
    calls = _counting_walk(monkeypatch)
    runs = _recording_leaves(monkeypatch)
    real, real_reverse = simulcheck._mirrors, simulcheck._reverse
    wide = Counter()

    def reverse(a, b):
        wide["calls"] += 1
        return real_reverse(a, b)

    def walk(driver, mirrors):
        calls.clear()
        runs.clear()
        monkeypatch.setattr(simulcheck, "_mirrors", mirrors)
        return search(g, h, bound, enumeration_base=driver), dict(calls), sum(map(len, runs))

    monkeypatch.setattr(simulcheck, "_reverse", reverse)
    for driver in (g, h):
        full = walk(driver, real)
        wide.clear()
        assert walk(driver, lambda b: real(b)[:1]) == full
        # driven by 2 a child adds under one tested digit, so only 37-44 % add any
        assert 0 < full[1]["children"] / 3 < wide["calls"]
    hits = full[0]
    if g == 10:
        assert hits == [n for n in known_list_10_2 if n <= bound]
    else:
        assert all(oracle_is_palindrome(n, g) and oracle_is_palindrome(n, h) for n in hits)
        assert [n for n in hits if n <= 10**5] == _oracle_hits(10**5, g, h)


def test_even_length_palindromes_are_multiples_of_base_plus_one():
    # the walk's residue f: a digit pair a*(b**i + b**(n-1-i)) of an n-digit
    # palindrome is a*b**i*(1 + b**(n-1-2i)), and b + 1 divides 1 + b**odd;
    # for an odd length n some palindrome is no such multiple
    for b in range(2, 17):
        for n in range(1, 9):
            t = (n + 1) // 2
            pals = [x * b ** (n - t) + oracle_reverse(x // b if n % 2 else x, b) for x in range(b ** (t - 1), b**t)]
            assert all(b ** (n - 1) <= p < b**n and oracle_is_palindrome(p, b) for p in pals)
            multiples = [p % (b + 1) == 0 for p in pals]
            assert all(multiples) if n % 2 == 0 else not all(multiples)


@pytest.mark.parametrize("driver,d", [(10, 11), (12, 7), (6, 13), (3, 21)])
def test_walk_tests_only_odd_numbers_of_its_chunk(monkeypatch, driver, d):
    # the walk lifts each node's residue into the node's interval, so it tests
    # only numbers of its chunk; against base 2 the residue fixes the last
    # bit to the top one, and a node whose residues disagree lists nothing
    runs = _recording_leaves(monkeypatch)
    n0, n1 = driver ** (d - 1), driver**d
    lo, hi = n0 + (n1 - n0) // 3, n1 - (n1 - n0) // 3
    _scan_chunk(driver, 2, d, lo, hi)
    seen = [n for run in runs for n in run]
    assert seen and all(lo <= n < hi and n % 2 for n in seen)


@lru_cache(maxsize=None)
def _base_h_palindromes(g, h, d, k):
    # the base-h palindromes of d base-g digits whose top and low k base-g digits mirror each other
    lo, hi = g ** (d - 1), g**d
    pals = [n for L in range(1, len(oracle_digits(hi, h)) + 1) for n in _palindromes(h, L) if lo <= n < hi]
    return [n for n in pals if (digits := oracle_digits(n, g))[:k] == digits[::-1][:k]]


@settings(max_examples=300, deadline=None)
@given(g=st.integers(2, 16), h=st.integers(2, 16), data=st.data())
def test_level_hits_match_the_string_oracle(g, h, data):
    # a level's one pass keeps exactly the numbers of its runs that the string
    # oracle finds palindromic in both bases, in order, given what the walk
    # guarantees: a run's numbers share their top and low k of d base-g digits
    # and their top and low j of L base-h digits; some draws are palindromes in
    # base g, in base h or in both, so that every test of the pass decides some
    assume(g != h)
    d = data.draw(st.integers(1, 2 * max(t for t in range(1, 16) if g**t <= 3_000)), label="d")
    k = data.draw(st.integers(1, d), label="k")
    pools = {"h": _base_h_palindromes(g, h, d, k)}
    pools["both"] = [n for n in pools["h"] if oracle_is_palindrome(n, g)]

    def number():
        kind = data.draw(st.sampled_from(["k", "g", *(kind for kind, pool in pools.items() if pool)]), label="kind")
        if kind in pools:
            return data.draw(st.sampled_from(pools[kind]), label="n")
        digits = oracle_digits(data.draw(st.integers(g ** (d - 1), g**d - 1), label="n"), g)
        for i in range(d if kind == "g" else k):
            digits[i] = digits[d - 1 - i]
        return sum(x * g**i for i, x in enumerate(digits))

    def mirrored(n):
        # the most top base-h digits of n that mirror its low ones
        digits = oracle_digits(n, h)
        return next((i for i in range(len(digits)) if digits[i] != digits[-1 - i]), len(digits))

    numbers = [number() for _ in range(data.draw(st.integers(1, 6), label="count"))]
    L = len(oracle_digits(numbers[0], h))
    numbers = [n for n in numbers if len(oracle_digits(n, h)) == L]
    js = [data.draw(st.integers(0, mirrored(n)), label="j") for n in numbers]
    expected = [n for n in numbers if oracle_is_palindrome(n, g) and oracle_is_palindrome(n, h)]
    assert _level_hits([range(n, n + 1) for n in numbers], js, g, h, d, k, L) == expected


# the oracle's full scan, once per process for each of its arguments
_oracle_hits = lru_cache(maxsize=None)(oracle_simultaneous)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from([(10, 2, 10**18), (6, 2, 6**7), (2, 3, 3**13)]), data=st.data())
def test_base_2_leaves_cover_every_hit_of_their_chunk(known_list_10_2, case, data):
    # a chunk of one driver length around a hit, from the shipped list or the
    # oracle: the runs its levels hand to their pass lie inside the chunk,
    # share no number, and list every simultaneous palindrome in it; each bound
    # is a power of the driver, so a hit's whole driver length lies below it
    g, h, bound = case
    hits = known_list_10_2 if g == 10 else _oracle_hits(bound, g, h)
    driver = plan_enumeration_base(g, h, 1)
    n = data.draw(st.sampled_from(hits), label="hit")
    d = len(oracle_digits(n, driver))
    n0, n1 = driver ** (d - 1), driver**d
    rng = data.draw(st.randoms(use_true_random=False), label="rng")

    def gap(most):
        # below a power of 2 drawn first, so chunks of every width up to the whole length turn up
        return rng.randint(0, min(most, 2 ** rng.randint(0, most.bit_length())))

    n_lo, n_hi = n - gap(n - n0), n + 1 + gap(n1 - 1 - n)
    with pytest.MonkeyPatch.context() as monkeypatch:
        runs = _recording_leaves(monkeypatch)
        found = _scan_chunk(driver, 2, d, n_lo, n_hi)
    listed = [m for run in runs for m in run]
    expected = [m for m in hits if n_lo <= m < n_hi]
    assert all(n_lo <= m < n_hi for m in listed)
    assert len(set(listed)) == len(listed)
    assert set(expected) <= set(listed)
    assert found == expected
