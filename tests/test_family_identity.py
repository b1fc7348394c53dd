"""The identity golden: every certification report of a fixed set of prefixes,
pinned by digest.

``tests/data/family_identity.json`` holds, for each pair (g, h) of
``test_acceptance.FAMILY_PAIRS`` and each block of 100 admissible prefixes
(a < the pair's limit, g not dividing a, in ascending order), the SHA-256 of
the ``results`` JSON that ``simulpal family a g h`` reports for them, in the
CLI's key order.  The limit is 10**4 for (10, 2) and 600 for the other 11
pairs: 14 974 reports.  The reports that have a shift are stored in the clear
as well, so a change there shows as a readable difference.  A refactor of
certification must leave every digest as it is.

Regenerate the file with::

    PYTHONPATH=src python tests/test_family_identity.py --write

A change that regenerates it redefines what "the same reports" means, so it
must say why in CHANGES.md, as for the perfbench goldens.
"""

import hashlib
import json
import sys

from simulpal import cli

from conftest import DATA
from test_acceptance import FAMILY_PAIRS

GOLDEN = DATA / "family_identity.json"
BLOCK = 100
LIMIT = {pair: 10**4 if pair == (10, 2) else 600 for pair in FAMILY_PAIRS}  # the prefixes are a < LIMIT


def _prefixes(g: int, h: int) -> list[int]:
    return [a for a in range(1, LIMIT[g, h]) if a % g]


def compute() -> dict:
    """The golden's content, recomputed: per pair its block digests, and
    every report with a shift."""
    pairs, shifted = [], []
    for g, h in FAMILY_PAIRS:
        args = cli.build_parser().parse_args(["family", "1", str(g), str(h)])
        prefixes = _prefixes(g, h)
        blocks = []
        for start in range(0, len(prefixes), BLOCK):
            texts = []
            for a in prefixes[start : start + BLOCK]:
                args.a = a
                results = cli.cmd_family(args)[2]
                texts.append(json.dumps(results))
                if results["shifts"]:
                    shifted.append({"g": g, "h": h, "a": a, "results": results})
            blocks.append(hashlib.sha256("\n".join(texts).encode()).hexdigest())
        pairs.append({"g": g, "h": h, "max_prefix": LIMIT[g, h], "reports": len(prefixes), "blocks": blocks})
    return {"pairs": pairs, "shifted": shifted}


def _block_range(g: int, h: int, block: int) -> str:
    prefixes = _prefixes(g, h)[block * BLOCK : (block + 1) * BLOCK]
    return f"a = {prefixes[0]}..{prefixes[-1]}"


def test_family_reports_match_the_identity_golden():
    golden = json.loads(GOLDEN.read_text())
    now = compute()
    assert sum(p["reports"] for p in now["pairs"]) == 14974
    assert [(p["g"], p["h"], p["max_prefix"]) for p in now["pairs"]] == [
        (p["g"], p["h"], p["max_prefix"]) for p in golden["pairs"]
    ], "the pair list or a prefix limit changed: regenerate the golden and say why"
    differing = [
        f"({want['g']}, {want['h']}) block {i} ({_block_range(want['g'], want['h'], i)})"
        for want, got in zip(golden["pairs"], now["pairs"])
        for i, (w, d) in enumerate(zip(want["blocks"], got["blocks"]))
        if w != d
    ]
    assert not differing, "reports differ from the identity golden in " + "; ".join(differing)
    assert now["shifted"] == golden["shifted"]


def write() -> None:
    data = compute()
    # one line per pair and per shifted report keeps the file diffable
    lines = ['{"pairs": [']
    lines += [json.dumps(p) + "," for p in data["pairs"]]
    lines[-1] = lines[-1].rstrip(",")
    lines.append('], "shifted": [')
    lines += [json.dumps(s) + "," for s in data["shifted"]]
    lines[-1] = lines[-1].rstrip(",")
    lines.append("]}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}: {sum(p['reports'] for p in data['pairs'])} reports, {len(data['shifted'])} with a shift")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    write()
