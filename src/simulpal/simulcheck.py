"""Search engine for integers that are palindromes in two bases at once.

The engine walks the top digits of palindromes in one base.  Those digits
fix the number's residue modulo a power of each base, and a palindrome of
even length in base b is a multiple of b + 1; a prefix whose residues
disagree is dropped, and once a prefix leaves only a few numbers of its
residue, those are listed and tested in both bases with an
early-exit digit comparison.  Long runs persist a resumable checkpoint;
resuming yields output identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import reprlib
import tempfile
import time
import warnings
import zlib
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import gcd, lcm, log
from typing import Callable

from .lindep import multiplicatively_independent
from .radix import DomainError, _mirror_test, _reverse, check_base, check_int, length_ranges
from .radix import is_palindrome

CHECKPOINT_VERSION = "simulpal-checkpoint-v2"

# the work-unit grain: a length of at most this many integers is one unit (see search)
UNIT_INTEGERS = 10**12


class CheckpointMismatchError(RuntimeError):
    """Checkpoint on disk does not belong to the requested search."""


def plan_enumeration_base(g: int, h: int, bound: int) -> int:
    """The base of ``g, h`` that drives the enumeration.

    Let c_b be base b with every prime of the other base divided out.  The
    base with the larger share log(c_b) / log(b) drives; a base whose
    primes all divide the other has share 0, and coprime bases both have 1.
    On equal shares the smaller base drives, unless it is 2: then base 2,
    whose test is one string comparison, is the tested base.  The choice
    ignores ``bound``; it stays a parameter because perfbench calls the
    planner with three arguments.
    """
    check_base(g)
    check_base(h)
    if g == h:
        raise DomainError("the two bases must differ")
    share = {}
    for b, other in ((g, h), (h, g)):
        c = b
        while (q := gcd(c, other)) > 1:
            c //= q
        share[b] = log(c) / log(b)
    if share[g] != share[h]:
        return max(share, key=share.get)
    return max(g, h) if min(g, h) == 2 else min(g, h)


def _warn_if_power_related(g: int, h: int) -> None:
    if not multiplicatively_independent(g, h):
        warnings.warn(
            f"bases {g} and {h} are perfect powers of a common base b; infinitely many "
            "integers are palindromes in both bases (e.g. every b**n + 1 where b**n is a "
            "power of both), so a finite search is only a sample",
            stacklevel=3,
        )


def _crt_entry(m1: int, m2: int, g: int, f: int) -> tuple[int, ...]:
    # joining N ≡ low (mod m1 = g**k), N ≡ r (mod m2 = h**j) and N ≡ 0 (mod f):
    # (q = gcd(m1, m2), m2 // q, inverse of m1 // q modulo that, M = lcm(m1, m2),
    #  the children's step s, inverse of m1 // q modulo s,
    #  qf = gcd(M, f), the lift K with N mod MF = (N mod M) * K mod MF, MF = lcm(M, f))
    q = gcd(m1, m2)
    M = m1 * (m2 // q)
    s = gcd(m1 * g, m2) // q
    qf = gcd(M, f)
    MF = M * (f // qf)
    return (q, m2 // q, pow(m1 // q, -1, m2 // q), M, s, pow(m1 // q, -1, s),
            qf, (1 - M // qf * pow(M // qf, -1, f // qf)) % MF, MF)


@lru_cache(maxsize=256)
def _tables(g: int, h: int, d: int) -> tuple[list[int], list[int], list]:
    # built once per process for every unit and search: g**i to g**d, h**j past g**d, and
    # crt[L % 2][k][j] = _crt_entry(g**k, h**j, g, f), filled as walks need it (one f per parity of L)
    hp = [1]
    while hp[-1] <= g**d:
        hp.append(hp[-1] * h)
    return [g**i for i in range(d + 1)], hp, [[[None] * len(hp) for _ in range((d + 1) // 2 + 1)] for _ in range(2)]


@lru_cache(maxsize=256)
def _mirrors(h: int) -> list[list[int]]:
    # built once per process and base: _mirrors(h)[x][t] is t's x base-h digits reversed, leading
    # zeros included (h**x's leading 1 keeps them), for each width x with h**x <= 2**11
    return [[_reverse(h**x + t, h) // h for t in range(h**x)] for x in range(12) if h**x <= 2**11]


def _level_hits(runs: list[range], js: list[int], g: int, h: int, d: int, k: int, L: int) -> list[int]:
    # the numbers of one level's runs that are palindromes in both bases (the order of the tests
    # is in _scan_chunk's docstring): a run's numbers share their top and low k of their d base-g
    # digits and, with j its entry in js, their top and low j of their L base-h digits
    gp, hp, _ = _tables(g, h, d)
    w = d - 2 * k  # the base-g digits still free; with w <= 1 the pair reads digit k twice
    gk, gt = gp[k], gp[max(d - k - 1, k)]
    if h == 2:
        hits = [n for run in runs for n in run if n // gk % g == n // gt % g and (s := bin(n))[2:] == s[:1:-1]]
    else:
        hits = [n for run, j in zip(runs, js) for n in run if n // gk % g == n // gt % g
                and ((x := L - 2 * j) <= 0 or _mirror_test(n // hp[j] % hp[x], h, x - 1, hp[x - 1]))]
    return hits if w < 2 else [n for n in hits if _mirror_test(n // gk % gp[w], g, w - 1, gp[w - 1])]


def _scan_chunk(driver: int, tested: int, d: int, n_lo: int, n_hi: int) -> list[int]:
    """Simultaneous palindromes among the d-digit base-``driver`` palindromes
    in [n_lo, n_hi), ascending; [n_lo, n_hi) holds only d-digit integers.

    The powers of h split [n_lo, n_hi) into blocks of one base-h length L
    each, and each block gets its own walk over the half-value's digits,
    most significant first, one level of nodes at a time; the block's few
    hits are sorted at its end.  A node with k digits fixed confines N to
    an interval [a, b) of width g**(d-k), cut to the block, and knows
    ``low = N mod g**k``, the top k digits mirrored.  The interval's
    numbers share their top j = L - e base-h digits, ``top``, with e the
    least such that a and b - 1 have one quotient by h**e (for h = 2, the
    bit length of a ^ (b - 1)); mirrored, those give N mod h**j.  The two
    residues join by CRT into one residue R modulo M = lcm(g**k, h**j),
    and a node whose residues disagree modulo gcd(g**k, h**j) holds no
    base-h palindrome and is dropped.  Once the interval holds few numbers
    congruent to R, the walk lists them and tests each in both bases (the
    rule is below).  For coprime bases that happens near k = d/3, for
    (10, 2) near d/2.7.

    A node carries its e and r = N mod h**j; the root carries (L, 0), and a
    child mirrors only the digits it adds.  Containment: a child's interval
    lies in its parent's, so its numbers share the parent's top digits too,
    e <= e_p and the parent's top is a prefix of the child's.  So with
    x = e_p - e and t = top mod h**x, the child's r is r_p + rev_x(t) *
    h**(L - e_p), where rev_x reverses t's x digits, leading zeros included.
    rev_x is read from a table while h**x <= 2**11 (widths 0-11 for base 2,
    0-3 for base 10); a wider x (1.3 % of the children for (10, 2) to 1e12,
    4.4 % for (11, 13) to 1e14) reverses h**x + t, whose leading 1 keeps t's
    zeros, and drops the 1.  Against a full reversal of top per child, this
    ran 9 % faster for (10, 2) to 1e12 and 18 % for (11, 13) to 1e14.

    A node hands r = N mod h**j down: its children's N mod g**(k+1) =
    low + c*g**k must meet r modulo gcd(g**(k+1), h**j), which holds for
    c ≡ c0 (mod s), s = gcd(g**(k+1), h**j) / gcd(g**k, h**j).  The walk
    steps over the other digits; s reaches 2 for (10, 2), 3 for (12, 18)
    and 5 for (20, 50), and stays 1 for coprime bases.

    A base-b palindrome of even length is a multiple of b + 1: its digit
    pairs contribute a*b**i*(1 + b**odd).  So N ≡ 0 modulo f, the lcm of
    g + 1 when d is even and h + 1 when L is even.  R joins that too: a
    node with R ≢ 0 modulo gcd(M, f) is dropped, and the listing starts
    and steps by MF = lcm(M, f), from N mod MF = R*K mod MF with K = 1 -
    (M/qf)*((M/qf)**-1 mod f/qf), qf = gcd(M, f): as qf | R, R*(M/qf) is a
    multiple of M, so R*K ≡ R (mod M), and as f/qf | K, R*K ≡ 0 (mod f).
    A palindrome ends in its nonzero top digit, so for bases 2 and 3 a
    block of even length in either base lists nothing: its nodes are
    dropped once their top digit in both bases is fixed.

    A leaf tests nothing itself: it adds its numbers ≡ R, as one range, and
    its j to its level's lists, and at the level's end one pass
    (``_level_hits``) tests them all.  A listed number's top and low k
    base-g digits match already, so while the level leaves w = d - 2k >= 2
    of them free, the number is tested first on the next pair, digit k
    against digit d - k - 1: two divisions by per-level powers of g keep
    about 1 in g of the numbers.  Then comes base h: base 2 reads the whole
    binary string, and a base h > 2 only the L - 2j middle base-h digits,
    as the top and low j match, and none if L - 2j <= 0.  Last, base g
    reads only its w middle digits; with w <= 1 every base-g digit is
    fixed and base g reads none.  For (10, 2) to 1e12 the levels list
    11 489 numbers, 1 536 of the 11 054 with a pair pass it, and 14 binary
    palindromes among those take the base-10 test.  Cutting each base-2
    leaf where the bit mirroring its next top bit changes halves its list,
    but beside the pair test that ran 5.77 ms against 5.36 ms without it
    (best of 400, alternating in one process).

    A node lists its numbers once they are at most 4 times as many as its
    g/s children, or 8 times as many if 2 is one of the bases: a child
    costs a few tests.  Measured, best of 5 with each factor: (10, 2) and
    (2, 3) ran within 8 % from 4 to 16 and up to 40 % slower with 1 (since
    the pair test, (10, 2) to 1e12 took 5.59, 5.51, 5.36 and 5.46 ms with
    4, 6, 8 and 10, best of 400); (3, 5) to 1e16 took 764, 708-724,
    625-636, 578, 590 and 615 ms with 1, 2, 3, 4, 8 and 16, while (20, 22)
    to 1e16 and (11, 13) to 1e12 and 1e14 ran within 5 % from 2 to 4.  A
    process builds its tables once.
    """
    g, h = driver, tested
    gp, hp, crt = _tables(g, h, d)
    mir = _mirrors(h)
    two = h == 2
    cap = (8 if 2 in (g, h) else 4) * g  # numbers a node may list per child: see the docstring
    hits: list[int] = []
    for L, lo, last in length_ranges(h, n_lo, n_hi - 1):
        hi = last + 1
        crt_L = crt[L % 2]
        # a simultaneous palindrome with d base-g and L base-h digits is a multiple of f
        f = lcm(1 if d % 2 else g + 1, 1 if L % 2 else h + 1)
        found: list[int] = []
        # the nodes of one level: (prefix, low = N mod g**(k-1), step, c0, e, r = N mod h**(L-e));
        # the walk visits only the digits c ≡ c0 (mod step) of each
        nodes = [(0, 0, 1, 0, L, 0)]
        k = 0
        runs, js = [], []  # a level's listed runs and their j, tested at the level's end
        while nodes:
            k += 1
            span, width, gk1, gk, crt_k = gp[d - k], gp[d - k + 1], gp[k - 1], gp[k], crt_L[k]
            # a child cut narrower by the block's edge may share more top digits than it uses
            e0 = bisect_left(hp, span)
            children = []
            for prefix, low, step, c0, ep, rp in nodes:
                base = prefix * g
                pw = hp[L - ep]
                a0 = base * span
                cut = a0 < lo or a0 + width > hi  # the node meets an edge of the block
                if cut:
                    c = max(lo // span - base, 0)
                    digits = range(c + (c0 - c) % step, min((hi - 1) // span - base + 1, g), step)
                else:
                    digits = range(c0, g, step)
                for c in digits:
                    low1 = low + c * gk1  # N mod g**k
                    a = a0 + c * span
                    b = a + span
                    if cut:
                        a, b = max(a, lo), min(b, hi)
                    # [a, b): the child's numbers; they share their top j = L - e base-h digits,
                    # which, mirrored, are N mod h**j
                    if two:
                        e = (a ^ (b - 1)).bit_length()
                        if e < e0:
                            e = e0
                        top = a >> e
                    else:
                        e = e0
                        while (top := a // hp[e]) != (b - 1) // hp[e]:
                            e += 1
                    # top's last x = ep - e digits are new: mirrored, they go above the parent's r
                    x = ep - e
                    t = top % hp[x]
                    r = rp + (mir[x][t] if x < len(mir) else _reverse(hp[x] + t, h) // h) * pw
                    j = L - e
                    entry = crt_k[j]
                    if entry is None:
                        entry = crt_k[j] = _crt_entry(gk, hp[j], g, f)
                    u, rest = divmod(r - low1, entry[0])
                    if rest:
                        continue
                    _, m, inv, M, s, inv_s, qf, K, MF = entry
                    R = low1 + gk * (u * inv % m)  # N mod M
                    if R % qf:
                        continue
                    if (b - a) * s > cap * MF:
                        children.append((base + c, low1, s, u * inv_s % s, e, r))
                        continue
                    R = R * K % MF  # N mod MF
                    runs.append(range(a + (R - a) % MF, b, MF))
                    js.append(j)
            if runs:
                found += _level_hits(runs, js, g, h, d, k, L)
                runs, js = [], []
            nodes = children
        found.sort()
        hits += found
    return hits


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass
class SearchCheckpoint:
    """Resumable state of a two-base palindrome search.

    ``found`` lists every simultaneous palindrome in [1, ``cursor``],
    ascending.  That does not depend on the base that drove the
    enumeration, and the search is complete when ``cursor == bound``.
    """

    g: int
    h: int
    bound: int
    cursor: int = 0
    found: list[int] = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "version": CHECKPOINT_VERSION,
            "g": self.g,
            "h": self.h,
            "bound": self.bound,
            "cursor": self.cursor,
            "hits": len(self.found),
            "found": self.found,
            "checksum": self._checksum(),
        }
        return json.dumps(doc, indent=1)

    def _checksum(self) -> int:
        return zlib.crc32(repr((self.g, self.h, self.bound, self.cursor, self.found)).encode())

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        """Parse and validate a checkpoint document.

        Every fault raises :class:`CheckpointMismatchError`: text that is
        not a JSON object, a version other than ``CHECKPOINT_VERSION``
        (checked before any other key), a missing key or a value of the
        wrong type, a cursor outside [0, bound], a ``found`` entry that is
        not a palindrome in both bases, not ascending, or beyond the
        cursor, a ``hits`` count other than the number of entries, a key
        outside the schema, and a ``checksum``, which earlier releases did not
        write, other than that of the rest: only it shows a cursor moved on.
        """
        try:
            doc = json.loads(text)
            if doc["version"] != CHECKPOINT_VERSION:
                raise CheckpointMismatchError(f"unsupported checkpoint version {doc['version']!r}")
            keys = ("g", "h", "bound", "cursor", "hits")  # only the types here: _validate checks the ranges
            g, h, bound, cursor, hits = (check_int(doc[k], f"{k} must be an integer", None) for k in keys)
            state = cls(g, h, bound, cursor, [check_int(x, "found must list integers", None) for x in doc["found"]])
            state._validate(hits)
            checksum = doc.pop("checksum", None)
            if set(doc) != {"version", *keys, "found"} or checksum not in (None, state._checksum()):
                raise ValueError("the checkpoint does not match its checksum")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
            raise CheckpointMismatchError(f"damaged checkpoint: {exc!r}") from exc
        return state

    def _validate(self, hits: int) -> None:
        # found: ascending simultaneous palindromes up to the cursor, ``hits`` of them
        if not 0 <= self.cursor <= self.bound:
            raise ValueError(f"cursor {self.cursor} does not fit the bound {self.bound}")
        previous = 0
        for n in self.found:
            if not previous < n <= self.cursor:
                raise ValueError(f"entry {n} is out of order or beyond the cursor {self.cursor}")
            if not (is_palindrome(n, self.g) and is_palindrome(n, self.h)):
                raise ValueError(f"entry {n} is not a palindrome in both bases")
            previous = n
        if hits != len(self.found):
            raise ValueError(f"{hits} hits recorded, but found lists {len(self.found)}")

    def save(self, path: str) -> None:
        """Atomic write: temp file in the same directory, synced, then renamed.
        A path that cannot be written raises :class:`CheckpointMismatchError`."""
        directory = os.path.dirname(os.path.abspath(path))
        try:
            fd, tmp = tempfile.mkstemp(prefix=".simulpal-cp-", dir=directory)
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(self.to_json())
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            why = exc.strerror or exc  # the text of an OSError repeats the path
            raise CheckpointMismatchError(f"cannot write checkpoint {reprlib.repr(path)}: {why}") from exc

    @classmethod
    def load(cls, path: str) -> "SearchCheckpoint":
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError as exc:
            raise CheckpointMismatchError(f"no checkpoint at {reprlib.repr(path)}") from exc
        except (OSError, ValueError) as exc:
            why = getattr(exc, "strerror", None) or exc  # a ValueError has none
            raise CheckpointMismatchError(f"cannot read checkpoint {reprlib.repr(path)}: {why}") from exc
        return cls.from_json(text)

    def require_match(self, g: int, h: int, bound: int) -> None:
        if (self.g, self.h, self.bound) != (g, h, bound):
            raise CheckpointMismatchError(
                f"checkpoint is for ({self.g}, {self.h}, bound {self.bound}), "
                f"requested ({g}, {h}, bound {bound})"
            )


def search(
    g: int,
    h: int,
    bound: int,
    *,
    enumeration_base: int | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    threads: int = 1,
    checkpoint_interval: float = 300.0,
    progress: Callable[[dict], None] | None = None,
) -> list[int]:
    """All N in [1, bound] palindromic in both base ``g`` and base ``h``, ascending.

    One base drives the enumeration (``enumeration_base`` forces the choice);
    candidates are tested in the other base with early exit.  A work unit is a
    prefix of the digit walk: the d-digit integers split into aligned runs of
    g**(d-k), k the largest with g**(3k) * ``UNIT_INTEGERS`` <= g**d, as the
    walk grows about as the cube root of the integers it covers.  With
    ``checkpoint_path`` set (not empty), progress is persisted atomically
    after every digit length and, every ``checkpoint_interval`` seconds, after
    a unit; ``resume=True`` continues from such a file, whichever base drives,
    and refuses one for other parameters.  ``threads`` > 1 fans units out to
    worker processes, capped with a warning at :func:`usable_cpus`; results
    merge in unit order, so output does not depend on the worker count.
    ``progress`` is called after each unit with a status dict:
    ``digit_length`` (its driving-base digits), ``cursor`` (its last integer;
    every hit up to it is found), ``length_end`` (the last integer of that
    length below the bound) and ``found`` (the hits so far).  An exception
    raised from it aborts the run after a final checkpoint write.
    """
    planned = plan_enumeration_base(g, h, bound)  # checks both bases and that they differ
    check_int(bound, "search bound must be an integer >= 1")
    check_int(threads, "need an integer count of at least one worker")
    if enumeration_base is not None and check_base(enumeration_base) not in (g, h):
        raise DomainError(f"enumeration base must be {g} or {h}")
    if type(checkpoint_interval) not in (int, float) or not checkpoint_interval >= 0:  # also false for NaN
        raise DomainError(f"checkpoint interval must be a number >= 0, got {checkpoint_interval!r}")
    if checkpoint_path == "":
        raise DomainError("checkpoint path must not be empty")
    if progress is not None and not callable(progress):
        raise DomainError(f"progress must be None or callable, got {progress!r}")
    _warn_if_power_related(g, h)

    if resume:
        if checkpoint_path is None:
            raise CheckpointMismatchError("resume requested without a checkpoint path")
        state = SearchCheckpoint.load(checkpoint_path)
        state.require_match(g, h, bound)
    else:
        state = SearchCheckpoint(g=g, h=h, bound=bound)
    if state.cursor == bound:
        return list(state.found)

    driver = enumeration_base or planned
    tested = h if driver == g else g
    workers = min(threads, usable_cpus())
    if workers < threads:
        warnings.warn(f"threads={threads} capped at {workers}, the CPUs this process may use", stacklevel=2)
    last_save = time.monotonic()

    def persist(force: bool) -> None:
        nonlocal last_save
        if checkpoint_path is not None and (force or time.monotonic() - last_save >= checkpoint_interval):
            state.save(checkpoint_path)
            last_save = time.monotonic()

    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for d, first, last in length_ranges(driver, state.cursor + 1, bound):
            if d > 1 and last == driver ** (d - 1):
                continue  # the one integer g**(d - 1): below the least d-digit palindrome g**(d - 1) + 1
            k = max((i for i in range(1, d) if driver ** (3 * i) * UNIT_INTEGERS <= driver**d), default=0)
            width = driver ** (d - k)  # a unit: [p * width, (p + 1) * width - 1], cut to [first, last]
            edges = [first, *range(first // width * width + width, last + 1, width), last + 1]
            run = map
            if pool is not None and len(edges) > 2:
                # about four batches per worker: one round trip each, and still balanced
                run = partial(pool.map, chunksize=max(1, (len(edges) - 1) // (4 * workers)))
            hits_by_unit = run(partial(_scan_chunk, driver, tested, d), edges[:-1], edges[1:])
            for c1, hits in zip(edges[1:], hits_by_unit):
                state.found.extend(hits)
                state.cursor = c1 - 1
                persist(force=False)
                if progress is not None:
                    progress({"digit_length": d, "cursor": c1 - 1, "length_end": last, "found": len(state.found)})
            persist(force=True)
        state.cursor = bound
        persist(force=True)
        return list(state.found)
    except CheckpointMismatchError:
        # the checkpoint could not be written; a final write would fail again
        raise
    except BaseException:
        persist(force=True)
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def count(g: int, h: int, bound: int, **kwargs) -> int:
    """Number of simultaneous palindromes in [1, bound]; takes the keyword
    arguments of :func:`search` (the hit list such searches retain is tiny)."""
    return len(search(g, h, bound, **kwargs))
