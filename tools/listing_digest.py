"""Run seeded token mutants of the bundled listings through ``abps solve``.

Each bundled listing (plain and oracle) gets ``MUTANTS`` mutants from
:func:`mutate`, drawn from a fixed seed per listing; the Tier-1 property
``TestListingMutants`` draws its mutants through the same function. Every
mutant goes through ``cli.main(["solve", ...])`` in process with
``T_W_minus`` and ``T_W_plus`` bound, and the script prints one block per
mutant: its edits, the exit code and each line of stdout and stderr.
Counts by exit code go to stderr. Run it in two checkouts and compare the
outputs::

    python tools/listing_digest.py > a.txt      # in one checkout
    python tools/listing_digest.py b.txt        # in the other
    diff a.txt b.txt

Each run imports the toolkit from the ``src`` directory beside this script,
so the two outputs show the two checkouts. The mutants come from this
script alone, not from the toolkit's tokenizer, so both checkouts solve the
same listings.
"""

from __future__ import annotations

import collections
import contextlib
import io
import random
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from abps_toolkit import abps, cli  # noqa: E402

SEEDS = {"plain": 1, "oracle": 2}
MUTANTS = 1000
UNKNOWN = ["zz", "rate_X"]  # names no listing declares
BINDINGS = ["--params", "T_W_minus=20", "--params", "T_W_plus=80"]

# A comment, which separates tokens, or one token of the listing language.
_TOKEN = re.compile(r'//[^\n]*|"[^"\n]*"|[0-9]+(?:\.(?!\.)[0-9]*)?(?:[eE][+-]?[0-9]+)?'
                    r"|\w+|!=|\.\.|->|\S")


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    """A mutant of the listing ``text`` and a description of its edits: one
    or two token deletions, insertions or replacements. A new token is, as
    often as not, a name that no listing declares, else one of the
    listing's own tokens."""
    found = [m for m in _TOKEN.finditer(text) if not m.group().startswith("//")]
    pieces = [m.group() for m in found]
    own = sorted(set(pieces))
    edits = []
    for _ in range(rng.choice((1, 2))):
        edit, k = rng.choice(("delete", "insert", "replace")), rng.randrange(len(found))
        new = "" if edit == "delete" else rng.choice(rng.choice((UNKNOWN, own)))
        # blanks around the edit keep it from joining the tokens beside it
        pieces[k] = f" {new} {pieces[k]}" if edit == "insert" else f" {new} "
        edits.append(f"{edit} {k} {found[k].group()!r}" + (f" {new!r}" if new else ""))
    out, end = [], 0
    for m, piece in zip(found, pieces):
        out += [text[end:m.start()], piece]
        end = m.end()
    return "".join(out) + text[end:], "; ".join(edits)


def main(out) -> None:
    counts: collections.Counter[int] = collections.Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.sm"
        for variant, seed in SEEDS.items():
            text = abps.reference_model_path(variant).read_text(encoding="utf-8")
            rng = random.Random(seed)
            for k in range(MUTANTS):
                mutant, edits = mutate(text, rng)
                path.write_text(mutant, encoding="utf-8")
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(["solve", str(path), *BINDINGS])
                counts[code] += 1
                print(f"{variant} {k}: {edits}\n  exit {code}", file=out)
                for name, stream in (("stdout", stdout), ("stderr", stderr)):
                    for line in stream.getvalue().replace(str(path), "mutant.sm").splitlines():
                        print(f"  {name} {line}", file=out)
    print(f"{sum(counts.values())} mutants: " + ", ".join(
        f"{n} exit {code}" for code, n in sorted(counts.items())), file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: python tools/listing_digest.py [OUTPUT]")
    if len(sys.argv) == 2:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            main(handle)
    else:
        main(sys.stdout)
