"""Backoff n-gram language models (orders 1-5) with ARPA serialization.

Sentences are padded with a single start symbol (contexts truncate near
the sentence start, the ARPA-ecosystem convention) and one end symbol,
which is a scored event. The estimator is interpolated Witten-Bell,
stored in backoff form. The start symbol is context only, never a
predicted event; the unknown symbol is reserved with a floor count of 1,
so scoring is total and every observed context's conditional
distribution sums to one over the event vocabulary.

All probabilities are log10.
"""

import math
from dataclasses import dataclass

from .errors import FormatError, ParameterError, TrainingError, read_lines, write_lines

START = "<s>"
END = "</s>"
UNK = "<unk>"

MAX_ORDER = 5
NEG_INF = float("-inf")
_NO_PROB = -99.0  # ARPA sentinel for the unscored start symbol


@dataclass(frozen=True)
class NGramModel:
    order: int
    probs: dict  # token tuple -> log10 conditional probability
    backoffs: dict  # context tuple -> log10 backoff weight


def _count_windows(sentences, order):
    counts = [None] + [{} for _ in range(order)]
    for sentence in sentences:
        padded = (START,) + tuple(sentence) + (END,)
        for m in range(1, order + 1):
            table = counts[m]
            for i in range(len(padded) - m + 1):
                gram = padded[i : i + m]
                table[gram] = table.get(gram, 0) + 1
    return counts


def check_order(order):
    if not 1 <= order <= MAX_ORDER:
        raise ParameterError("order must be in 1..%d, got %r" % (MAX_ORDER, order))


def train(sentences, order):
    """Estimate an interpolated Witten-Bell NGramModel from tokenized sentences."""
    check_order(order)
    sentences = [tuple(s) for s in sentences]
    if not sentences:
        raise TrainingError("cannot train a language model on an empty corpus")
    for lineno, s in enumerate(sentences, 1):
        if len(s) == 0:
            raise TrainingError("line %d is empty; training requires nonempty sentences" % lineno)
        if START in s:  # <s> is no unigram event, so no n-gram can end in it
            raise TrainingError("line %d holds the sentence-start symbol %s" % (lineno, START))

    counts = _count_windows(sentences, order)
    probs, backoffs = _estimate_witten_bell(counts, order)
    return NGramModel(order, probs, backoffs)


def _estimate_witten_bell(counts, order):
    # unigram base: event counts over everything but the start symbol,
    # with a floor count of 1 for the unknown symbol
    events = {w: c for (w,), c in counts[1].items() if w != START}
    events[UNK] = events.get(UNK, 0) + 1
    total = sum(events.values())
    linear = {(w,): c / total for w, c in events.items()}

    backoffs = {}
    for m in range(2, order + 1):
        by_context = {}
        for gram, c in counts[m].items():
            by_context.setdefault(gram[:-1], {})[gram[-1]] = c
        for context, continuations in by_context.items():
            ctx_total = sum(continuations.values())
            types = len(continuations)
            denom = ctx_total + types
            for w, c in continuations.items():
                linear[context + (w,)] = (c + types * linear[context[1:] + (w,)]) / denom
            backoffs[context] = math.log10(types / denom)

    probs = {gram: math.log10(p) for gram, p in linear.items()}
    return probs, backoffs


def logprob(model, word, context=()):
    """log10 P(word | context); contexts longer than order-1 are truncated.

    Unseen n-grams resolve through backoff weights, a missing weight
    counting as 0.0 (the ARPA convention), and out-of-vocabulary words map
    to the unknown symbol.
    """
    ctx = tuple(context)
    if model.order > 1:
        ctx = ctx[-(model.order - 1) :]
    else:
        ctx = ()
    if word == START or (word,) not in model.probs:
        word = UNK

    score = 0.0
    while True:
        hit = model.probs.get(ctx + (word,))
        if hit is not None:
            return score + hit
        if not ctx:
            return NEG_INF  # only reachable for models without <unk>
        score += model.backoffs.get(ctx, 0.0)
        ctx = ctx[1:]


def state_machine(model):
    """The model as a machine over its context states: (state, step), where
    state(context) is the context's state and step(state, word) is
    (log10 P(word | state), the state after word).

    A context state is the empty context, a context with a backoff line, or
    a proper prefix of a stored n-gram, and so is every prefix of a state; a
    context's state is its longest suffix of at most order-1 words that is a
    state. logprob walks a context from its longest such suffix down, adding
    each suffix's backoff until suffix + (word,) is stored. A suffix longer
    than the state is no state, so it has no backoff line (it adds 0.0) and
    suffix + (word,) is not stored: the walk reaches the state with the
    score 0.0 it started from, and logprob(model, w, state(c)) equals
    logprob(model, w, c) bit for bit. Contexts with the same state therefore
    score every continuation alike. The next state is the longest state
    suffix of state + (word,); when t + (word,) is a state, so is its prefix
    t, a suffix of the context no longer than order-2 words and so of its
    state, which gives state(c + (w,)) == state(state(c) + (w,)).
    """
    keep = model.order - 1
    states = {()}  # every prefix of a member is a member
    for contexts in ((gram[:-1] for gram in model.probs), model.backoffs):
        for context in contexts:
            context = context[:keep]
            while context not in states:
                states.add(context)
                context = context[:-1]

    def state(context):
        context = tuple(context)[-keep:] if keep else ()
        while context not in states:
            context = context[1:]
        return context

    def step(context, word):
        return logprob(model, word, context), state(context + (word,))

    return state, step


def sentence_logprob(model, sentence):
    """log10 probability of a sentence: the sum of per-event logprob calls.

    Events are each sentence token plus the end symbol, conditioned on the
    padded history.
    """
    padded = (START,) + tuple(sentence) + (END,)
    total = 0.0
    for i in range(1, len(padded)):
        total += logprob(model, padded[i], padded[:i])
    return total


def perplexity(model, sentences):
    """10^(-logprob/events) over a corpus; events include each end symbol."""
    sentences = [tuple(s) for s in sentences]
    if not sentences:
        raise ParameterError("perplexity needs a nonempty corpus")
    total = 0.0
    events = 0
    for s in sentences:
        total += sentence_logprob(model, s)
        events += len(s) + 1
    if total == NEG_INF:
        return float("inf")
    return 10.0 ** (-total / events)


def write_arpa(model, path):
    """Serialize in the standard ARPA text layout (log10, tab-separated)."""
    grams_by_order = [[] for _ in range(model.order + 1)]
    for gram in model.probs:
        grams_by_order[len(gram)].append(gram)
    if (START,) not in model.probs:  # <s> is listed with the placeholder probability
        grams_by_order[1].append((START,))
    for grams in grams_by_order[1:]:
        grams.sort()

    lines = ["\\data\\"]
    for m in range(1, model.order + 1):
        lines.append("ngram %d=%d" % (m, len(grams_by_order[m])))
    for m in range(1, model.order + 1):
        lines.append("")
        lines.append("\\%d-grams:" % m)
        for gram in grams_by_order[m]:
            prob = model.probs.get(gram, _NO_PROB)
            entry = "%.7f\t%s" % (prob, " ".join(gram))
            if gram in model.backoffs:
                entry += "\t%.7f" % model.backoffs[gram]
            lines.append(entry)
    lines.append("")
    lines.append("\\end\\")
    write_lines(path, lines)


def read_arpa(path):
    """Parse an ARPA file back into an NGramModel; malformed input raises FormatError."""
    raw = read_lines(path)

    def fail(lineno, message):
        raise FormatError("%s line %d: %s" % (path, lineno + 1, message))

    def number(lineno, text, what):
        # nan or -inf would reach every score built on it; the -99 placeholder is finite
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            fail(lineno, "bad %s %r" % (what, text))
        return value

    idx = 0
    while idx < len(raw) and raw[idx].strip() != "\\data\\":
        if raw[idx].strip():
            fail(idx, "expected \\data\\ header, found %r" % raw[idx])
        idx += 1
    if idx == len(raw):
        raise FormatError("%s: missing \\data\\ header" % path)
    idx += 1

    declared = {}
    while idx < len(raw) and raw[idx].strip():
        line = raw[idx].strip()
        if not line.startswith("ngram "):
            fail(idx, "expected 'ngram N=count', found %r" % line)
        try:
            left, right = line[len("ngram ") :].split("=")
            n, count = int(left), int(right)
        except ValueError:
            fail(idx, "malformed count line %r" % line)
        if n in declared:
            fail(idx, "order %d declared twice: %r" % (n, line))
        if n != len(declared) + 1:
            fail(idx, "expected order %d, found %r" % (len(declared) + 1, line))
        declared[n] = count
        idx += 1
    if not declared:
        raise FormatError("%s: malformed \\data\\ section (orders [])" % path)
    order = max(declared)

    probs, backoffs = {}, {}
    listed = dict.fromkeys(declared, 0)
    current = None
    ended = False
    for lineno in range(idx, len(raw)):
        line = raw[lineno].strip()
        if not line:
            continue
        if line == "\\end\\":
            ended = True
            break
        if line.endswith("-grams:") and line.startswith("\\"):
            try:
                current = int(line[1:].split("-")[0])
            except ValueError:
                fail(lineno, "bad section header %r" % line)
            if current not in declared:
                fail(lineno, "section %r was not declared" % line)
            continue
        if current is None:
            fail(lineno, "entry before any n-gram section: %r" % line)
        fields = raw[lineno].strip().split("\t")
        if len(fields) not in (2, 3):
            fail(lineno, "expected 2 or 3 tab-separated fields, got %d" % len(fields))
        prob = number(lineno, fields[0], "probability")
        gram = tuple(fields[1].split())
        if len(gram) != current:
            fail(lineno, "%d-gram %r in \\%d-grams: section" % (len(gram), fields[1], current))
        if gram in probs:
            fail(lineno, "duplicate %d-gram %r" % (current, fields[1]))
        probs[gram] = prob
        if len(fields) == 3:
            backoffs[gram] = number(lineno, fields[2], "backoff weight")
        listed[current] += 1
    if not ended:
        raise FormatError("%s: missing \\end\\ marker" % path)
    for m, n in declared.items():
        if listed[m] != n:
            raise FormatError(
                "%s: declared %d %d-grams but listed %d" % (path, n, m, listed[m])
            )

    # pure-lookup entries: drop the start symbol's placeholder probability
    if (START,) in probs and probs[(START,)] <= _NO_PROB:
        del probs[(START,)]
    return NGramModel(order, probs, backoffs)
