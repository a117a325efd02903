"""Seeded benchmark inputs built from the toy corpus generator's grammar.

`make_pair` is imported from scripts/generate_toy_corpus.py, so the
benchmark and the bundled corpus share one grammar. The program under test
sees only the files written here.
"""

import importlib.util
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATOR = ROOT / "scripts" / "generate_toy_corpus.py"
BUNDLED = ROOT / "src" / "minismt" / "data"
TOY_SEED = 20240601  # the generator seed of the bundled corpus


def _generator():
    spec = importlib.util.spec_from_file_location("generate_toy_corpus", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GEN = _generator()


def toy_splits(seed):
    """{split: [(en, ar), ...]} drawn exactly as the generator script draws them."""
    rng = random.Random(seed)
    return {split: [_GEN.make_pair(rng) for _ in range(count)] for split, count in _GEN.SPLITS}


def joined_pairs(rng, clause_counts):
    """One pair per entry of clause_counts, each the concatenation of that many clauses."""
    out = []
    for count in clause_counts:
        clauses = [_GEN.make_pair(rng) for _ in range(count)]
        out.append((" ".join(c[0] for c in clauses), " ".join(c[1] for c in clauses)))
    return out


def stratified_counts(rng, sizes, per_size):
    """per_size entries of every size in sizes, in seeded random order.

    Equal shares of each length keep the amount of work steady across seeds.
    """
    counts = [size for size in sizes for _ in range(per_size)]
    rng.shuffle(counts)
    return counts


def write_split(directory, name, pairs):
    """Write pairs as <name>.en / <name>.ar; returns the two paths."""
    paths = []
    for side, index in (("en", 0), ("ar", 1)):
        path = Path(directory) / ("%s.%s" % (name, side))
        path.write_text("\n".join(p[index] for p in pairs) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def write_config(path, data, work_dir):
    """A pipeline INI with make-toy-config's settings: myd3, every other key at its default."""
    lines = ["[data]"]
    for split in ("train", "dev", "test"):
        src, tgt = data[split]
        lines += ["%s_source = %s" % (split, src), "%s_target = %s" % (split, tgt)]
    lines += ["", "[tokenize]", "scheme = myd3", "", "[run]", "seed = 17",
              "work_dir = %s" % work_dir, ""]
    Path(path).write_text("\n".join(lines), encoding="utf-8")
    return Path(path)

