import gc
import random

import pytest

from minismt import artok, corpus, phrases, pipeline


@pytest.fixture(scope="session")
def bw_inventory():
    return artok.CliticInventory.load(pipeline.bundled_data("clitics.bw.tsv"))


@pytest.fixture(scope="session")
def bw_lexicon():
    return artok.load_lexicon(pipeline.bundled_data("stems.bw.txt"))


@pytest.fixture(scope="session")
def ar_inventory():
    return artok.CliticInventory.load(pipeline.bundled_data("clitics.ar.tsv"))


@pytest.fixture(scope="session")
def ar_lexicon():
    return artok.load_lexicon(pipeline.bundled_data("stems.ar.txt"))


@pytest.fixture(scope="session")
def toy_paths():
    return {
        "%s_%s" % (split, side): pipeline.bundled_data("toy.%s.%s" % (split, side))
        for split in ("train", "dev", "test")
        for side in ("en", "ar")
    }


@pytest.fixture(scope="session")
def toy_train(toy_paths):
    return corpus.load_parallel(toy_paths["train_en"], toy_paths["train_ar"])


@pytest.fixture(scope="session")
def toy_tokenized_ar(toy_train, bw_inventory, bw_lexicon):
    """Arabic side of the toy training corpus, MYD3-tokenized."""
    return [
        artok.tokenize(p.target, artok.Scheme.MYD3, bw_inventory, bw_lexicon)
        for p in toy_train.pairs
    ]


def unreachable_after(run):
    """gc.collect()'s count of the unreachable objects that run() leaves with
    the cyclic collector off: 0 when reference counting freed all it made."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def random_alignment(rng, n, m, density=0.6):
    links = set()
    for i in range(n):
        for j in range(m):
            if rng.random() < density / max(n, m) * 2:
                links.add((i, j))
    return frozenset(links)


def random_phrase_table(rng, source_vocab, target_vocab, n_entries=12, max_len=2):
    """Small random phrase table; every source word gets a 1-word entry."""
    entries = {}
    for f in source_vocab:
        for tgt in rng.sample(target_vocab, rng.randint(1, min(3, len(target_vocab)))):
            entries[((f,), (tgt,))] = _random_scores(rng)
    for _ in range(n_entries):
        i = rng.randrange(len(source_vocab))
        span = tuple(source_vocab[i : i + rng.randint(1, max_len)])
        tgt = tuple(rng.sample(target_vocab, rng.randint(1, max_len)))
        entries.setdefault((span, tgt), _random_scores(rng))
    return phrases.PhraseTable(entries)


def _random_scores(rng):
    return phrases.Scores(*(rng.uniform(0.05, 1.0) for _ in range(4)))
