"""Search engine for integers that are palindromes in two bases at once.

The engine walks the digits of palindromes in one base, pruning digit
prefixes that cannot also give a palindrome in the other base, and tests
each surviving candidate in the other base with an early-exit digit
comparison.  Long runs persist a resumable checkpoint; resuming yields
output identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import warnings
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from .lindep import multiplicatively_independent
from .palgen import _half_range, count_palindromes_upto, half_ranges, mirror_half
from .radix import DomainError, _mirror_test, check_base, digit_count, is_palindrome_early_exit

CHECKPOINT_VERSION = "simulpal-checkpoint-v1"

# halves per work unit; one unit is the parallelism and mid-block checkpoint grain
CHUNK_HALVES = 400_000


class CheckpointMismatchError(RuntimeError):
    """Checkpoint on disk does not belong to the requested search."""


def plan_enumeration_base(g: int, h: int, bound: int) -> int:
    """The base of ``g, h`` that drives the enumeration up to ``bound``.

    When every prime of one base divides the other but not conversely,
    the base with the extra primes drives: its outer digits fix the low
    digits in the other base, on which the digit walk prunes.  Otherwise
    the base with fewer palindromes in [1, bound] drives; counts are exact
    (per-digit-length counts plus a bisected partial top length) and ties
    go to the larger base.
    """
    check_base(g)
    check_base(h)
    if g == h:
        raise DomainError("the two bases must differ")
    # every prime of h divides g iff h divides g**e for e >= log2(h)
    h_in_g = pow(g, h.bit_length(), h) == 0
    g_in_h = pow(h, g.bit_length(), g) == 0
    if h_in_g != g_in_h:
        return g if h_in_g else h
    cg = count_palindromes_upto(g, bound)
    ch = count_palindromes_upto(h, bound)
    if cg != ch:
        return g if cg < ch else h
    return max(g, h)


def _warn_if_power_related(g: int, h: int) -> None:
    if not multiplicatively_independent(g, h):
        warnings.warn(
            f"bases {g} and {h} are perfect powers of a common base b; infinitely many "
            "integers are palindromes in both bases (e.g. every b**n + 1 where b**n is a "
            "power of both), so a finite search is only a sample",
            stacklevel=3,
        )


def _scan_chunk(driver: int, tested: int, d: int, half_lo: int, half_hi: int) -> list[int]:
    """Simultaneous palindromes among d-digit base-``driver`` palindromes
    built from half-values in [half_lo, half_hi), ascending.

    Depth-first walk over the half-value's digits, most significant first,
    in ascending digit order.  A node with k digits fixed knows the top k
    and the low k base-``driver`` digits of N.  The low part ``low = N mod
    g**k`` fixes N mod h**j for every h**j dividing g**k, so a base-h
    palindrome's top j digits are the low j, mirrored: a number ``top``
    with N in [top*h**(L-j), (top+1)*h**(L-j)) when N has L base-h digits.
    A child is pruned when N mod h is 0, or when its base-g interval misses
    that interval for every length L it can have.  The test is only
    necessary, so every leaf still gets the full base-h test.  Coprime
    bases give j = 0 at every depth and the walk prunes nothing.
    """
    g, h = driver, tested
    t = (d + 1) // 2
    odd = d % 2 == 1
    gp = [g**i for i in range(d + 1)]
    hp = [1]
    while hp[-1] <= gp[d]:
        hp.append(hp[-1] * h)
    # js[k] = largest j with h**j | g**k
    js = [0] * (t + 1)
    for k in range(1, t + 1):
        j = js[k - 1]
        while gp[k] % hp[j + 1] == 0:
            j += 1
        js[k] = j
    # a leaf is N = half * shift + low, where low is the parent's N mod
    # g**(t-1) plus, for even d, the last half digit mirrored
    shift = gp[t - 1] if odd else gp[t]
    step = gp[t - 1] if odd else gp[t] + gp[t - 1]
    hits: list[int] = []

    def walk(k: int, prefix: int, low: int, top: int) -> None:
        width = gp[t - k - 1]
        base = prefix * g
        c0 = max(0, half_lo // width - base)
        c1 = min(g, (half_hi - 1) // width - base + 1)
        if k + 1 == t:
            n = base * shift + low + c0 * step
            for _ in range(c0, c1):
                L = bisect_right(hp, n)
                if _mirror_test(n, h, L - 1, hp[L - 1]):
                    hits.append(n)
                n += step
            return
        j0, j1 = js[k], js[k + 1]
        gk = gp[k]
        span = gp[d - k - 1]
        for c in range(c0, c1):
            low1 = low + c * gk
            top1 = top
            if j1:
                if low1 % h == 0:
                    continue
                x = low1 // hp[j0]
                for _ in range(j1 - j0):
                    x, r = divmod(x, h)
                    top1 = top1 * h + r
                # the child's N lie in [lo, hi); lo >= g**(d-1) >= h**j1, so
                # each base-h length L they can have exceeds j1
                lo = (base + c) * span
                hi = lo + span
                for L in range(bisect_right(hp, lo), bisect_right(hp, hi - 1) + 1):
                    w = hp[L - j1]
                    if top1 * w < hi and lo < (top1 + 1) * w:
                        break
                else:
                    continue
            walk(k + 1, base + c, low1, top1)

    walk(0, 0, 0, 0)
    return hits


def _int(x) -> int:
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


@dataclass
class SearchCheckpoint:
    """Resumable state of a two-base palindrome search.

    ``cursor`` is the (digit_length, parity, half_value) of the last fully
    processed palindrome; ``found`` lists every simultaneous palindrome
    discovered so far, ascending.
    """

    g: int
    h: int
    bound: int
    enumeration_base: int
    cursor: tuple[int, str, int] | None = None
    found: list[int] = field(default_factory=list)
    complete: bool = False
    version: str = CHECKPOINT_VERSION

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "g": self.g,
            "h": self.h,
            "bound": self.bound,
            "enumeration_base": self.enumeration_base,
            "cursor": None
            if self.cursor is None
            else {
                "digit_length": self.cursor[0],
                "parity": self.cursor[1],
                "half_value": self.cursor[2],
            },
            "complete": self.complete,
            "found": self.found,
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        """Parse and validate a checkpoint document.

        Every fault raises :class:`CheckpointMismatchError`: text that is
        not JSON, a missing key or a value of the wrong type, a cursor
        that names no palindrome within the bound, a ``complete`` flag
        whose cursor is not the last palindrome in range, and a ``found``
        entry that is not a palindrome in both bases, not ascending, or
        beyond the cursor.
        """
        try:
            doc = json.loads(text)
            cur = doc["cursor"]
            if cur is not None:
                cur = (_int(cur["digit_length"]), cur["parity"], _int(cur["half_value"]))
            state = cls(
                g=_int(doc["g"]),
                h=_int(doc["h"]),
                bound=_int(doc["bound"]),
                enumeration_base=_int(doc["enumeration_base"]),
                cursor=cur,
                found=[_int(x) for x in doc["found"]],
                complete=doc["complete"],
                version=doc["version"],
            )
            if type(state.complete) is not bool:
                raise TypeError(f"'complete' must be true or false, got {state.complete!r}")
            state._validate()
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointMismatchError(f"damaged checkpoint: {exc!r}") from exc
        return state

    def _processed(self) -> int:
        # the last palindrome the cursor says was processed, 0 before any
        if self.cursor is None:
            return 0
        length, _, half = self.cursor
        _, _, t, odd = _half_range(self.enumeration_base, length)
        return mirror_half(half, self.enumeration_base, t, odd)

    def _validate(self) -> None:
        # the cursor must name a palindrome within the bound, the last one if
        # the search is complete; found must hold simultaneous palindromes,
        # ascending, none beyond the cursor
        g = self.enumeration_base
        if g not in (self.g, self.h):
            raise ValueError(f"enumeration base {g} is neither base")
        if self.cursor is not None:
            length, parity, half = self.cursor
            if not 1 <= length <= digit_count(self.bound, g):
                raise ValueError(f"cursor length {length} does not fit the bound")
            h0, h1, _, odd = _half_range(g, length)
            if parity != ("odd" if odd else "even") or not h0 <= half < h1:
                raise ValueError(f"cursor {self.cursor} names no palindrome")
        if self.complete:
            *_, (d, _, stop) = half_ranges(g, 1, self.bound)
            if self.cursor != (d, "odd" if d % 2 else "even", stop - 1):
                raise ValueError(f"complete, but cursor {self.cursor} is not at the last palindrome")
        limit = self._processed()
        if limit > self.bound:
            raise ValueError(f"cursor {self.cursor} lies beyond the bound {self.bound}")
        previous = 0
        for n in self.found:
            if not previous < n <= limit:
                raise ValueError(f"entry {n} is out of order or beyond the cursor's {limit}")
            if not (is_palindrome_early_exit(n, self.g) and is_palindrome_early_exit(n, self.h)):
                raise ValueError(f"entry {n} is not a palindrome in both bases")
            previous = n

    def save(self, path: str) -> None:
        """Atomic write: temp file in the same directory, synced, then renamed."""
        directory = os.path.dirname(os.path.abspath(path))
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

    @classmethod
    def load(cls, path: str) -> "SearchCheckpoint":
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError as exc:
            raise CheckpointMismatchError(f"no checkpoint at {path}") from exc
        except (OSError, ValueError) as exc:
            raise CheckpointMismatchError(f"cannot read checkpoint {path}: {exc}") from exc
        return cls.from_json(text)

    def require_match(self, g: int, h: int, bound: int, enumeration_base: int | None) -> None:
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(f"unsupported checkpoint version {self.version!r}")
        if (self.g, self.h, self.bound) != (g, h, bound):
            raise CheckpointMismatchError(
                f"checkpoint is for ({self.g}, {self.h}, bound {self.bound}), "
                f"requested ({g}, {h}, bound {bound})"
            )
        if enumeration_base is not None and enumeration_base != self.enumeration_base:
            raise CheckpointMismatchError(
                f"checkpoint enumerates base {self.enumeration_base}, requested {enumeration_base}"
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

    One base drives the enumeration (``enumeration_base`` forces the
    choice); candidates are tested in the other base with early exit.
    With ``checkpoint_path`` set, progress is persisted atomically after
    every completed digit-length block and every ``checkpoint_interval``
    seconds at chunk granularity; ``resume=True`` continues from such a
    file and refuses to resume a checkpoint for different parameters.
    ``threads`` > 1 fans chunks out to worker processes; results are
    merged in chunk order, so output does not depend on the worker count.
    ``progress`` is called after each chunk with a status dict; an
    exception raised from it aborts the run after a final checkpoint
    write.
    """
    check_base(g)
    check_base(h)
    if g == h:
        raise DomainError("the two bases must differ")
    if type(bound) is not int:
        raise DomainError(f"search bound must be an integer, got {bound!r}")
    if bound < 1:
        raise DomainError("search bound must be >= 1")
    if threads < 1:
        raise DomainError(f"need at least one worker, got threads={threads}")
    if enumeration_base is not None and enumeration_base not in (g, h):
        raise DomainError(f"enumeration base must be {g} or {h}")
    _warn_if_power_related(g, h)

    if resume:
        if checkpoint_path is None:
            raise CheckpointMismatchError("resume requested without a checkpoint path")
        state = SearchCheckpoint.load(checkpoint_path)
        state.require_match(g, h, bound, enumeration_base)
    else:
        driver = enumeration_base or plan_enumeration_base(g, h, bound)
        state = SearchCheckpoint(g=g, h=h, bound=bound, enumeration_base=driver)
    if state.complete:
        return list(state.found)

    driver = state.enumeration_base
    tested = h if driver == g else g
    last_save = time.monotonic()

    def persist(force: bool) -> None:
        nonlocal last_save
        if checkpoint_path is None:
            return
        if force or time.monotonic() - last_save >= checkpoint_interval:
            state.save(checkpoint_path)
            last_save = time.monotonic()

    # resume just past the last palindrome the cursor says was processed
    first = state._processed() + 1
    pool = ProcessPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for d, start, h1e in half_ranges(driver, first, bound):
            parity = "odd" if d % 2 else "even"
            edges = list(range(start, h1e, CHUNK_HALVES)) + [h1e]
            chunks = list(zip(edges[:-1], edges[1:]))
            if pool is not None and len(chunks) > 1:
                futures = [pool.submit(_scan_chunk, driver, tested, d, c0, c1) for c0, c1 in chunks]
                results = (f.result() for f in futures)
            else:
                results = (_scan_chunk(driver, tested, d, c0, c1) for c0, c1 in chunks)
            for (c0, c1), hits in zip(chunks, results):
                state.found.extend(hits)
                state.cursor = (d, parity, c1 - 1)
                persist(force=False)
                if progress is not None:
                    progress(
                        {
                            "digit_length": d,
                            "parity": parity,
                            "half_value": c1 - 1,
                            "half_end": h1e,
                            "found": len(state.found),
                        }
                    )
            persist(force=True)
        state.complete = True
        persist(force=True)
        return list(state.found)
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
