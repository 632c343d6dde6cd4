"""Compare the parser's readings of one pool of texts at two revisions.

    python3 tools/readings.py --base REV [--head REV] [--seed S] [--texts N]

Each side is the ``src/`` tree of a git revision, exported with
``git archive`` into a temporary directory; without ``--head`` the head side
is a snapshot of the working tree's ``src/``, exported alike. Each side parses
the same pool in an interpreter of its own. The pool holds the references of
``command_corpus(20000)`` and ``toy_corpus(5000)`` for seeds 0 and 1 (the
generated texts) and ``--texts`` random texts drawn with
``random.Random(--seed)`` in the shapes of ``tests/shell_fragments.py``,
the shapes that the ``shell_text`` strategy builds; the pool is built from
the working tree, so it needs no hypothesis.

A reading is the tokens, the template and the erased counts of an accepted
text, or the error class and message of a refused one. The tool prints how
many distinct texts fall in each class, with the five shortest of each:
same; template differs; erased counts or tokens only; accepted -> refused;
refused -> accepted; refusal message or class only. With ``bash`` on PATH
it runs ``bash -n`` on every text whose acceptance changed and prints how
many of them Bash accepts; ``bash -n`` does not parse a backtick
substitution's body, so it accepts what such a body hides.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "tools")]

from revisions import export_sides  # noqa: E402
from shell_fragments import ANY, SHAPES  # noqa: E402

from nlbash.synth import command_corpus, toy_corpus  # noqa: E402

CLASSES = (
    "same",
    "template differs",
    "erased counts or tokens only",
    "accepted -> refused",
    "refused -> accepted",
    "refusal message or class only",
)
SHOWN = 5  # texts shown per class, the shortest
CORPUS = 20000  # commands per command_corpus seed

# Run in each side's interpreter: argv is the side's src/, the pool file and
# the output file, which gets one JSON reading per line, in pool order.
_SIDE = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
from nlbash.parser import parse
from nlbash.template import normalize_template
with open(sys.argv[2], encoding="utf-8") as fh:
    texts = json.load(fh)
with open(sys.argv[3], "w", encoding="utf-8") as out:
    for text in texts:
        try:
            ast = parse(text)
        except Exception as exc:  # a crash is a reading too
            reading = [type(exc).__name__, str(exc)]
        else:
            tokens = [[t.kind.value, t.text, t.start, t.end] for t in ast.tokens]
            reading = [tokens, str(normalize_template(ast)), [c.erased_args for c in ast.walk()]]
        out.write(json.dumps(reading) + "\n")
"""


def _character(rng: random.Random) -> str:
    """Any character but a surrogate, ASCII half the time."""
    while True:
        c = chr(rng.randrange(128) if rng.random() < 0.5 else rng.randrange(0x110000))
        if not "\ud800" <= c <= "\udfff":
            return c


def _part(rng: random.Random, part) -> str:
    if isinstance(part, list):
        return rng.choice(part)
    lists, most = part
    return "".join(
        _character(rng) if kind is ANY else rng.choice(kind)
        for kind in (rng.choice(lists) for _ in range(rng.randint(0, most)))
    )


def random_text(rng: random.Random) -> str:
    """One text of a shape of ``SHAPES``, the shapes that ``shell_text`` builds."""
    return "".join(_part(rng, part) for part in rng.choice(SHAPES))


def build_pool(seed: int, texts: int, corpus: int) -> tuple[list[str], set[str]]:
    """The sorted distinct texts of the pool, and the generated ones among them."""
    generated: set[str] = set()
    for corpus_seed in (0, 1):
        generated.update(command_corpus(corpus, seed=corpus_seed))
        generated.update(ref for ex in toy_corpus(corpus // 4, seed=corpus_seed) for ref in ex.references)
    rng = random.Random(seed)
    pool = generated | {random_text(rng) for _ in range(texts)}
    return sorted(pool), generated


def _read(src: Path, pool_file: Path, out: Path) -> None:
    subprocess.run([sys.executable, "-c", _SIDE, str(src), str(pool_file), str(out)], cwd=out.parent, check=True)


def _classify(base: list, head: list) -> str:
    if base == head:
        return "same"
    accepted = len(base) == 3, len(head) == 3
    if accepted == (True, True):
        return "template differs" if base[1] != head[1] else "erased counts or tokens only"
    if accepted == (True, False):
        return "accepted -> refused"
    if accepted == (False, True):
        return "refused -> accepted"
    return "refusal message or class only"


def _show(reading: list) -> str:
    if len(reading) == 2:
        return f"{reading[0]}: {reading[1]}"
    tokens, template, erased = reading
    return f"{template} erased {tuple(erased)} tokens {[t[1] for t in tokens]}"


def _bash_accepts(texts: list[str], bash: str) -> int:
    env = {k: v for k, v in os.environ.items() if k != "BASH_ENV"}  # a non-interactive bash sources it
    return sum(
        subprocess.run(
            [bash, "--norc", "--noprofile", "-n"],
            input=text.encode("utf-8", "surrogatepass"),
            capture_output=True,
            env=env,
        ).returncode == 0
        for text in texts
    )


def compare(pool: list[str], generated: set[str], base_src: Path, head_src: Path, work: Path) -> None:
    """Parse the pool on both sides and print the count and shortest texts of each class."""
    pool_file = work / "pool.json"
    pool_file.write_text(json.dumps(pool), encoding="utf-8")
    outs = work / "base.jsonl", work / "head.jsonl"
    _read(base_src, pool_file, outs[0])
    _read(head_src, pool_file, outs[1])
    counts = dict.fromkeys(CLASSES, 0)
    shown: dict[str, list[tuple[int, str, list, list]]] = {name: [] for name in CLASSES}
    moved: dict[str, list[str]] = {"accepted -> refused": [], "refused -> accepted": []}
    generated_moved = 0
    with open(outs[0], encoding="utf-8") as base_lines, open(outs[1], encoding="utf-8") as head_lines:
        for text, base_line, head_line in zip(pool, base_lines, head_lines, strict=True):
            base, head = json.loads(base_line), json.loads(head_line)
            name = _classify(base, head)
            counts[name] += 1
            if name == "same":
                continue
            generated_moved += text in generated
            if name in moved:
                moved[name].append(text)
            shown[name].append((len(text), text, base, head))
            shown[name] = sorted(shown[name])[:SHOWN]
    print(f"{len(pool)} distinct texts, {len(generated)} of them generated; generated texts that moved: {generated_moved}")
    bash = shutil.which("bash")
    for name in CLASSES:
        note = f"  (bash -n accepts {_bash_accepts(moved[name], bash)})" if bash and moved.get(name) else ""
        print(f"{name:32} {counts[name]:8}{note}")
        for _, text, base, head in shown[name]:
            print(f"    {text!r}\n      base: {_show(base)}\n      head: {_show(head)}")
    if not bash:
        print("no bash on PATH: bash -n not run")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision whose src/ is the base side")
    parser.add_argument("--head", help="revision whose src/ is the head side (default: the working tree)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random texts (default 0)")
    parser.add_argument("--texts", type=int, default=20000, help="random texts to draw (default 20000)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="readings-") as tmp:
        work = Path(tmp)
        (base_label, base), (head_label, head) = export_sides(args.base, args.head, work, "src")
        print(f"base {base_label}, head {head_label}")
        pool, generated = build_pool(args.seed, args.texts, CORPUS)
        compare(pool, generated, base / "src", head / "src", work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
