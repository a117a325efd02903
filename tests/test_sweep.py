"""A seeded mutation sweep over every file each subcommand reads.

Each case copies a small well-formed set of files, applies one line-level
mutation to one file the subcommand reads, and runs the subcommand in this
process through cli.main. A case may succeed (exit 0); otherwise it exits
1 with exactly one `ERROR <category>: ...` line on stderr and leaves no
output file, and a case that succeeds leaves outputs that load with their
own readers. A Python exception escaping main (a traceback, for a user) is
a failure of the case. The random choices are seeded by the case's name,
so the sweep is the same on every run.
"""

import itertools
import random
import re
import shutil

import pytest

from minismt import align, artok, corpus, lm, parallel, phrases, pipeline
from minismt.cli import main
from minismt.decode import Weights

_CONFIG = """[data]
train_source = source.en
train_target = raw.ar
dev_source = source.en
dev_target = raw.ar
test_source = source.en
test_target = raw.ar

[tokenize]
scheme = myd3
inventory = clitics.tsv
lexicon = stems.txt

[lm]
order = 3

[run]
work_dir = work
"""

# subcommand -> (argv, the files it reads, the files it writes), in the case directory
_COMMANDS = {
    "tokenize": ("tokenize --scheme myd3 --inventory clitics.tsv --lexicon stems.txt "
                 "--input raw.ar",
                 ("raw.ar", "clitics.tsv", "stems.txt"), ()),
    "detokenize": ("detokenize --input target.ar", ("target.ar",), ()),
    "stats": ("stats source.en target.ar", ("source.en", "target.ar"), ()),
    "train-lm": ("train-lm target.ar --order 3 -o out.arpa", ("target.ar",), ("out.arpa",)),
    "query-lm": ("query-lm lm.arpa --input target.ar", ("lm.arpa", "target.ar"), ()),
    "align": ("align --source source.en --target target.ar -o out.align",
              ("source.en", "target.ar"), ("out.align", "out.align.lex.fwd", "out.align.lex.bwd")),
    "extract": ("extract --source source.en --target target.ar --alignments train.align "
                "--lex-fwd lexicon.fwd --lex-bwd lexicon.bwd -o out.table",
                ("source.en", "target.ar", "train.align", "lexicon.fwd", "lexicon.bwd"),
                ("out.table",)),
    "decode": ("decode --table table.txt --lm lm.arpa --weights weights.txt --input dev.en",
               ("table.txt", "lm.arpa", "weights.txt", "dev.en"), ()),
    "nbest": ("nbest -n 3 --table table.txt --lm lm.arpa --weights weights.txt --input dev.en",
              ("table.txt", "lm.arpa", "weights.txt", "dev.en"), ()),
    "mert": ("mert --dev-source dev.en --dev-target dev.ar --table table.txt --lm lm.arpa "
             "--iterations 1 --nbest 3 -o out.weights",
             ("dev.en", "dev.ar", "table.txt", "lm.arpa"), ("out.weights", "out.weights.log")),
    "bleu": ("bleu dev.ar target.ar dev.ar", ("dev.ar", "target.ar"), ()),
    "validate": ("validate run.ini", ("run.ini",), ()),
    # a failed stage writes no manifest, so the pipeline counts it as not run
    "pipeline": ("pipeline run.ini --stage prepare",
                 ("run.ini", "source.en", "raw.ar", "clitics.tsv", "stems.txt"),
                 ("work/prepare.manifest.json",)),
}

# subcommand -> a load of the outputs it wrote, in the case directory, with their readers
_LOADS = {
    "train-lm": lambda d: lm.read_arpa(d / "out.arpa"),
    "align": lambda d: (
        list(align.read_alignments(d / "out.align",
                                   corpus.load_parallel(d / "source.en", d / "target.ar"))),
        align.read_lexicon(d / "out.align.lex.fwd"), align.read_lexicon(d / "out.align.lex.bwd")),
    "extract": lambda d: phrases.read_table(d / "out.table"),
    "mert": lambda d: Weights.from_file(d / "out.weights"),
}

_SEEDS = 2  # cases per file and kind
_KINDS = ("drop-field", "insert-field", "bad-value", "duplicate-line", "drop-line", "swap-lines",
          "truncate", "empty", "control", "tab-space", "reserved")
_RESERVED = (lm.START, lm.END, lm.UNK, align.NULL_WORD)


def _mutate(text, kind, rng):
    """`text` (lines ending in "\\n") with one mutation of the given kind."""
    if kind == "empty":
        return ""
    lines = text.split("\n")[:-1]
    if kind == "control":
        char = rng.choice(("\r", "\f", "\ufeff"))
        if char == "\ufeff":
            return char + text
        i = rng.randrange(len(lines))
        k = rng.randint(0, len(lines[i]))
        lines[i] = lines[i][:k] + char + lines[i][k:]
    elif kind in ("duplicate-line", "drop-line", "swap-lines"):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == "duplicate-line":
            lines.insert(i, lines[i])
        elif kind == "drop-line":
            del lines[i]
        else:
            lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        i = rng.choice([k for k, line in enumerate(lines) if len(line) > 1])
        cut = rng.randrange(1, len(lines[i]))
        return "".join(line + "\n" for line in lines[:i]) + lines[i][:cut]
    elif kind == "tab-space":
        spaced = [k for k, line in enumerate(lines) if " " in line or "\t" in line]
        if spaced:
            i = rng.choice(spaced)
            old = rng.choice([c for c in " \t" if c in lines[i]])
            k = rng.choice([k for k, c in enumerate(lines[i]) if c == old])
            lines[i] = lines[i][:k] + {" ": "\t", "\t": " "}[old] + lines[i][k + 1:]
    elif kind == "reserved":  # each reserved word, as a field of one line
        i = rng.choice([k for k, line in enumerate(lines) if line.strip()])
        sep = "\t" if "\t" in lines[i] else " "
        fields = lines[i].split(sep)
        for word in _RESERVED:
            fields.insert(rng.randint(0, len(fields)), word)
        lines[i] = sep.join(fields)
    else:  # a field is a run of non-whitespace
        i = rng.choice([k for k, line in enumerate(lines) if line.strip()])
        line = lines[i]
        field = rng.choice(list(re.finditer(r"\S+", line)))
        start, end = field.span()
        if kind == "drop-field":  # and the separator before it, or else after it
            start, end = (start - 1, end) if start else (start, min(end + 1, len(line)))
            lines[i] = line[:start] + line[end:]
        elif kind == "insert-field":
            other = rng.choice(re.findall(r"\S+", line))
            lines[i] = line[:start] + other + ("\t" if "\t" in line else " ") + line[start:]
        else:
            lines[i] = line[:start] + rng.choice(("nan", "inf", "1e999", "x")) + line[end:]
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The well-formed files every case starts from: a 7-pair corpus and its models."""
    d = tmp_path_factory.mktemp("base")

    def head(name, n):
        return pipeline.bundled_data(name).read_text(encoding="utf-8").split("\n")[:n]

    inventory = artok.CliticInventory.load(pipeline.bundled_data("clitics.bw.tsv"))
    lexicon = artok.load_lexicon(pipeline.bundled_data("stems.bw.txt"))
    # one-word pairs too, so that dropping a field can leave a side empty
    raw = head("toy.train.ar", 4) + ["$krA", "nEm", "lA"]
    tokenized = [" ".join(t) for t in artok.tokenize_all(
        (line.split() for line in raw), artok.Scheme.MYD3, inventory, lexicon)]
    texts = {"source.en": head("toy.train.en", 4) + ["thanks", "yes", "no"], "raw.ar": raw,
             "target.ar": tokenized, "dev.en": head("toy.train.en", 3), "dev.ar": tokenized[:3]}
    for name, lines in texts.items():
        (d / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    shutil.copy(pipeline.bundled_data("clitics.bw.tsv"), d / "clitics.tsv")
    shutil.copy(pipeline.bundled_data("stems.bw.txt"), d / "stems.txt")
    (d / "run.ini").write_text(_CONFIG, encoding="utf-8")
    lm.write_arpa(lm.train(corpus.read_sentences(d / "target.ar"), 3), d / "lm.arpa")
    pipeline.stage_align(d / "source.en", d / "target.ar", d / "train.align", d / "lexicon.fwd",
                         d / "lexicon.bwd", iterations=5, heuristic="grow-diag-final")
    pipeline.stage_phrases(d / "source.en", d / "target.ar", d / "train.align", d / "lexicon.fwd",
                           d / "lexicon.bwd", d / "table.txt", max_len=3)
    Weights.uniform().to_file(d / "weights.txt")
    return d


def _ends_well(command, code, out, err, outputs):
    if code == 0:
        return True
    if command == "validate" and code == 1 and not err:  # its report lists every violation
        return out[-1:] and out[-1].endswith("violation(s)")
    return (code == 1 and len(err) == 1 and re.match(r"ERROR [a-z]+: ", err[0])
            and not any(p.exists() for p in outputs))


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_malformed_file_ends_in_success_or_one_error_line(
        base, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
    argv, reads, writes = _COMMANDS[command]
    failures = []
    for name in reads:
        for kind, seed in itertools.product(_KINDS, range(_SEEDS)):
            case = "%s %s %s %d" % (command, name, kind, seed)
            d = tmp_path / case.replace(" ", "_")
            shutil.copytree(base, d)
            monkeypatch.chdir(d)
            path = d / name
            path.write_bytes(_mutate(path.read_text(encoding="utf-8"), kind,
                                     random.Random(case)).encode("utf-8"))
            try:
                code = main(argv.split())
            except Exception as exc:  # noqa: BLE001 - every escape is a finding
                code = "%s: %s" % (type(exc).__name__, exc)
            # split wherever any reader may end a line, "\r" included
            out, err = (text.splitlines() for text in capsys.readouterr())
            if code == 0 and command in _LOADS:
                try:
                    _LOADS[command](d)
                except Exception as exc:  # noqa: BLE001 - an output its reader refuses too
                    code = "0, but reading its output: %s: %s" % (type(exc).__name__, exc)
            if not _ends_well(command, code, out, err, [d / w for w in writes]):
                failures.append("%s: exit %s, stderr %r" % (case, code, err))
    assert not failures, "\n".join(failures)
