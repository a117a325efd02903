"""Independent reference implementations used to check the real code paths.

These deliberately avoid the algorithms they verify: extraction is checked
by enumerating every rectangle, decoding by enumerating every derivation
(and its search errors by an unpruned forced decode of the reference),
line search by dense grid evaluation, the distortion limit's dead ends by
searching one-word steps, the future-cost table by scoring every
segmentation of every span, the distortion estimate that ranks a stack by
walking the uncovered runs one bit at a time, and language model
probabilities by recounting the padded token stream (`conditional_sum` sums
one context's conditional distribution over `event_vocab`).
`line_search_reference` is the plain line search that the optimized one
must equal float for float, `em_train_reference` the dict-of-dicts IBM
Model 1 EM that align.em_train must equal float for float, and
`kbest_reference` the read-out of every path to a search's goal that
Decoder.nbest must equal entry for entry; `sentence_stats_reference`
recounts every reference for each hypothesis, and `mert_reference` decodes
on every iteration.
"""

import functools
import heapq
import itertools
import math
import random
from collections import Counter

from minismt import bleu, lm
from minismt.align import NULL_WORD, TranslationLexicon
from minismt.decode import N_FEATURES, UNKNOWN_WORD_PENALTY, Translation, Weights
from minismt.mert import GAIN_THRESHOLD, LineSearchResult, PoolEntry
from minismt.phrases import PhrasePair, distortion_cost


def count_padded(sentences, order):
    """Window counts over singly start/end-padded sentences, recounted fresh."""
    counts = {}
    for s in sentences:
        padded = ["<s>"] + list(s) + ["</s>"]
        for m in range(1, order + 1):
            for i in range(len(padded) - m + 1):
                gram = tuple(padded[i : i + m])
                counts[gram] = counts.get(gram, 0) + 1
    return counts


def event_vocab(model):
    """Tokens that can be predicted: the words of the model's unigrams."""
    return {gram[0] for gram in model.probs if len(gram) == 1}


def conditional_sum(model, context):
    """Sum of the backoff-resolved conditional distribution over the event vocabulary."""
    return sum(10.0 ** lm.logprob(model, w, context) for w in sorted(event_vocab(model)))


def brute_force_extract(pair, alignment, max_len):
    """Every consistent rectangle with at least one link, by full enumeration."""
    links = alignment.links
    n, m = len(pair.source), len(pair.target)
    result = set()
    for i1 in range(n):
        for i2 in range(i1, n):
            if i2 - i1 + 1 > max_len:
                continue
            for j1 in range(m):
                for j2 in range(j1, m):
                    if j2 - j1 + 1 > max_len:
                        continue
                    inside = [
                        (i, j) for i, j in links if i1 <= i <= i2 and j1 <= j <= j2
                    ]
                    if not inside:
                        continue
                    violated = any(
                        (i1 <= i <= i2) != (j1 <= j <= j2) for i, j in links
                    )
                    if violated:
                        continue
                    result.add(
                        PhrasePair(
                            pair.source[i1 : i2 + 1],
                            pair.target[j1 : j2 + 1],
                            (i1, i2),
                            (j1, j2),
                            frozenset((i - i1, j - j1) for i, j in inside),
                        )
                    )
    return result


def _oracle_options(sentence, table):
    """Same option inventory the decoder must consider, derived directly."""
    n = len(sentence)
    options = []
    for i in range(n):
        for j in range(i + 1, n + 1):
            for target, scores in table.options(sentence[i:j]):
                logs = tuple(math.log10(v) for v in scores.as_tuple())
                options.append((i, j, target, logs, False))
        if not table.options(sentence[i : i + 1]):
            options.append((i, i + 1, (sentence[i],), (0.0, 0.0, 0.0, 0.0), True))
    return options


def exhaustive_decode(sentence, table, model, weights, distortion_limit=None):
    """Maximum derivation score, with its tokens and features, by enumerating
    every segmentation x ordering x option choice. Recombination-free;
    apply-order score and feature accumulation mirrors the decoder's
    arithmetic so equality is exact."""
    sentence = tuple(sentence)
    n = len(sentence)
    if n == 0:
        return 0.0, (), (0.0,) * N_FEATURES
    options = _oracle_options(sentence, table)
    full = (1 << n) - 1
    best = [None, None, None]  # score, tokens, features

    def rec(coverage, last_end, context, score, tokens, features):
        if coverage == full:
            if (
                best[0] is None
                or score > best[0]
                or (score == best[0] and tokens < best[1])
            ):
                best[:] = score, tokens, features
            return
        for opt in options:
            i, j = opt[0], opt[1]
            mask = ((1 << (j - i)) - 1) << i
            if coverage & mask:
                continue
            if distortion_limit is not None and distortion_cost(last_end, i) > distortion_limit:
                continue
            inc, ctx = _oracle_inc(context, last_end, opt, coverage | mask, full, model)
            rec(
                coverage | mask,
                j - 1,
                ctx,
                score + weights.dot(inc),
                tokens + opt[2],
                tuple(f + d for f, d in zip(features, inc)),
            )

    start_ctx = (lm.START,) if model.order > 1 else ()
    rec(0, -1, start_ctx, 0.0, (), (0.0,) * N_FEATURES)
    return tuple(best)


def enumerate_all_translations(sentence, table, model, weights, distortion_limit=None):
    """Every distinct target string with its best derivation score,
    ranked the way nbest must rank them."""
    sentence = tuple(sentence)
    options = _oracle_options(sentence, table)
    n = len(sentence)
    full = (1 << n) - 1
    results = {}

    def rec(coverage, last_end, context, score, tokens):
        if coverage == full:
            if tokens not in results or score > results[tokens]:
                results[tokens] = score
            return
        for opt in options:
            i, j = opt[0], opt[1]
            mask = ((1 << (j - i)) - 1) << i
            if coverage & mask:
                continue
            if distortion_limit is not None and distortion_cost(last_end, i) > distortion_limit:
                continue
            inc, ctx = _oracle_inc(context, last_end, opt, coverage | mask, full, model)
            rec(coverage | mask, j - 1, ctx, score + weights.dot(inc), tokens + opt[2])

    start_ctx = (lm.START,) if model.order > 1 else ()
    rec(0, -1, start_ctx, 0.0, ())
    return sorted(results.items(), key=lambda kv: (-kv[1], kv[0]))


def forced_decode(sentence, reference, table, model, weights, distortion_limit=None):
    """The best score of a derivation whose target is exactly `reference`, or
    None when no derivation produces it.

    An unpruned dynamic program over (coverage, reference prefix length,
    last_end): the prefix fixes the LM context, so these states have equal
    futures. A step adds weights.dot of its features to the running score,
    as the decoder and exhaustive_decode do; float addition is monotone, so
    the best score per state gives the best derivation score exactly."""
    sentence, reference = tuple(sentence), tuple(reference)
    n, m = len(sentence), len(reference)
    if n == 0:
        return 0.0 if m == 0 else None
    full = (1 << n) - 1
    fits = [[] for _ in range(m)]  # prefix length -> the options that continue it
    for opt in _oracle_options(sentence, table):
        size = len(opt[2])
        for k in range(m - size + 1):
            if reference[k : k + size] == opt[2]:
                fits[k].append(opt)
    layers = [{} for _ in range(m + 1)]  # prefix length -> {(coverage, last_end): score}
    layers[0][0, -1] = 0.0
    for k in range(m):
        context = ((lm.START,) + reference[:k])[-(model.order - 1) :] if model.order > 1 else ()
        for (coverage, last_end), score in layers[k].items():
            for opt in fits[k]:
                i, j = opt[0], opt[1]
                mask = ((1 << (j - i)) - 1) << i
                if coverage & mask:
                    continue
                if distortion_limit is not None and distortion_cost(last_end, i) > distortion_limit:
                    continue
                inc, _ = _oracle_inc(context, last_end, opt, coverage | mask, full, model)
                value = score + weights.dot(inc)
                layer, key = layers[k + len(opt[2])], (coverage | mask, j - 1)
                if key not in layer or value > layer[key]:
                    layer[key] = value
    finals = [score for (coverage, _), score in layers[m].items() if coverage == full]
    return max(finals) if finals else None


def search_outcome(best, reference, forced):
    """How a 1-best `best` (a Translation) stands to its reference, whose
    forced_decode score is `forced`: "search" when the reference scores
    higher (the search missed a better string, or a better derivation of the
    reference itself), "exact" when it is the reference, "unreachable" when
    no derivation produces the reference, and "model" when the model prefers
    another string."""
    if forced is not None and forced > best.score:
        return "search"
    if best.tokens == tuple(reference):
        return "exact"
    return "unreachable" if forced is None else "model"


def span_mask(i, j):
    """The future-cost table's key of span (i, j exclusive): its bitmask."""
    return (1 << j) - (1 << i)


def future_of_by_bits(coverage, full_mask, table):
    """Future cost of a coverage by testing one bit at a time: the sum of
    table[span_mask(i, j)] over the maximal uncovered runs, left to right."""
    total = 0.0
    i = 0
    n = full_mask.bit_length()
    while i < n:
        if coverage >> i & 1:
            i += 1
            continue
        j = i
        while j < n and not (coverage >> j & 1):
            j += 1
        total += table[span_mask(i, j)]
        i = j
    return total


def future_cost_reference(sentence, table, model, weights):
    """The future-cost table by enumeration: for each span, the best score sum
    over every segmentation into options, each option scored as weights.dot
    of its target's LM log-probability alone (word k after target[:k]) and
    its static terms, as if no other phrase were around it."""
    n = len(sentence)
    scored = [[] for _ in range(n)]  # start -> (end, option score)
    for i, j, target, logs, unknown in _oracle_options(sentence, table):
        lm_score = 0.0
        for k, w in enumerate(target):
            lm_score += lm.logprob(model, w, target[:k])
        penalty = -float(len(target)) - (UNKNOWN_WORD_PENALTY if unknown else 0.0)
        scored[i].append((j, weights.dot((lm_score, *logs, 0.0, penalty, -1.0))))

    def segmentations(i, j):
        if i == j:
            yield 0.0
            return
        for end, score in scored[i]:
            if end <= j:
                for rest in segmentations(end, j):
                    yield score + rest

    return {span_mask(i, j): max(segmentations(i, j))
            for i in range(n) for j in range(i + 1, n + 1)}


def distortion_estimate_reference(coverage, last_end, n):
    """The distortion a state still has to pay, estimated one bit at a time:
    a cursor starts at last_end + 1 and walks the uncovered runs left to
    right, adding |run start - cursor| for each run and then moving to the
    position just past the run."""
    total, cursor, i = 0, last_end + 1, 0
    while i < n:
        if coverage >> i & 1:
            i += 1
            continue
        total += abs(i - cursor)
        while i < n and not coverage >> i & 1:
            i += 1
        cursor = i
    return total


def can_finish_reference(n, distortion_limit):
    """`can_finish(coverage, last_end)` by searching one-word steps within the
    limit: every word has a one-word option, and a phrase's words taken one
    at a time are steps within any limit, so a state can finish exactly when
    these steps can."""
    full = (1 << n) - 1

    @functools.cache
    def can_finish(coverage, last_end):
        return coverage == full or any(
            can_finish(coverage | 1 << i, i) for i in range(n)
            if not coverage >> i & 1 and distortion_cost(last_end, i) <= distortion_limit)

    return can_finish


def _oracle_inc(context, last_end, opt, coverage_after, full, model):
    i, j, target, logs, unknown = opt
    inc = [0.0] * 8
    inc[1:5] = logs
    lm_score = 0.0
    ctx = context
    for w in target:
        lm_score += lm.logprob(model, w, ctx)
        ctx = (ctx + (w,))[-(model.order - 1) :] if model.order > 1 else ()
    if coverage_after == full:
        lm_score += lm.logprob(model, lm.END, ctx)
    inc[0] = lm_score
    inc[5] = -float(distortion_cost(last_end, i))
    inc[6] = -float(len(target)) - (UNKNOWN_WORD_PENALTY if unknown else 0.0)
    inc[7] = -1.0
    return tuple(inc), ctx


def kbest_reference(graph, n):
    """The n best distinct translations of a search graph, Decoder._search's
    (goal, arcs) pair, read out as every path to the goal in score order
    (Huang & Chiang 2005, Better k-best parsing, Algorithm 3), keeping each
    target string's first path and rebuilding its tokens and features from
    the path's hypotheses: the read-out that Decoder.nbest must equal entry
    for entry."""
    goal, arcs = graph
    paths = _KBestPaths(arcs)
    # kth yields exact, non-increasing scores (a priority is a path
    # score plus inc_score, as a search score is, and float addition
    # is monotone), so each target string's first path is its best;
    # once n strings are in, a path scoring below the last new string's
    # score cannot change the top n, while an equal one can win a tie
    found = {}
    last = None
    for k in itertools.count():
        path = paths.kth(goal, k)
        if path is None or len(found) >= n and path[0] < last:
            break
        score, hyps = path
        tokens = tuple(w for node in hyps for w in node.option.target)
        if tokens not in found:
            found[tokens] = path
            last = score
    ranked = sorted(found.items(), key=lambda item: (-item[1][0], item[0]))
    return [_materialize_path(hyps, score) for _, (score, hyps) in ranked[:n]]


class _KBestPaths:
    """Lazy k-best path enumeration over the recombination graph
    (Huang & Chiang 2005, Better k-best parsing, Algorithm 3)."""

    def __init__(self, arcs):
        self._arcs = arcs  # recombination key -> the losers of its state
        self._state = {}  # rep -> (paths found so far, heap of candidates)

    def kth(self, rep, k):
        """k-th best (score, hypothesis path) reaching rep's state, or None."""
        state = self._state.get(rep)
        if state is None:
            # every entry's rank-0 path goes through its predecessor's best
            # path, and predecessors are representatives, so the rank-0
            # value is just the entry's own search score
            heap = [(-entry.score, entry.serial, entry, 0)
                    for entry in [rep, *self._arcs.get(rep.key, ())]]
            heapq.heapify(heap)
            state = self._state[rep] = ([], heap)
        found, heap = state
        while len(found) <= k and heap:
            neg, _, entry, rank = heapq.heappop(heap)
            if entry.prev is None:  # the root: one entry, popped at rank 0 only
                found.append((-neg, []))
                continue
            # an entry at rank r >= 1 was pushed once its predecessor's r-th
            # path was found, and every state has a rank-0 path
            found.append((-neg, self.kth(entry.prev, rank)[1] + [entry]))
            nxt = self.kth(entry.prev, rank + 1)
            if nxt is not None:
                heapq.heappush(heap, (-(nxt[0] + entry.inc_score), entry.serial, entry, rank + 1))
        return found[k] if k < len(found) else None


def _materialize_path(hyps, score):
    """The Translation of a path; `score` is the path's score as kbest_reference found it."""
    tokens = []
    features = [0.0] * N_FEATURES
    for node in hyps:
        s = node.option.static
        # prev is the state the step was expanded from, whose key holds the
        # last_end the search measured the jump from
        distortion = distortion_cost(node.prev.key[2], node.option.start)
        inc = (node.lm_score, s[1], s[2], s[3], s[4], -float(distortion), s[6], s[7])
        tokens.extend(node.option.target)
        features = [f + d for f, d in zip(features, inc)]
    return Translation(tuple(tokens), tuple(features), score)


def em_train_reference(corpus, iterations):
    """IBM Model 1 EM on a dict-of-dicts table: table[given][out], rows and
    their entries inserted as first seen, each sum added left to right."""
    pairs = corpus.pairs
    table = {}
    for pair in pairs:
        for f in (NULL_WORD,) + pair.source:
            row = table.setdefault(f, {})
            for e in pair.target:
                row[e] = 0.0
    for f, row in table.items():
        uniform = 1.0 / len(row)
        for e in row:
            row[e] = uniform

    history = []
    for _ in range(iterations):
        expected = {f: dict.fromkeys(row, 0.0) for f, row in table.items()}
        log_likelihood = 0.0
        for pair in pairs:
            sources = (NULL_WORD,) + pair.source
            rows = [table[f] for f in sources]
            counts = [expected[f] for f in sources]
            log_len = math.log(len(sources))
            for e in pair.target:
                denom = 0.0
                for row in rows:
                    denom += row[e]
                log_likelihood += math.log(denom) - log_len
                for row, count in zip(rows, counts):
                    count[e] += row[e] / denom
        history.append(log_likelihood)
        for f, row in expected.items():
            total = 0.0  # summed left to right: sum() of floats rounds differently from 3.12 on
            for value in row.values():
                total += value
            for e in row:
                table[f][e] = row[e] / total

    return TranslationLexicon(table, tuple(history))


def grid_best_bleu(pool, base, direction, lo=-5.0, hi=5.0, resolution=1e-3):
    """Dense grid search over the step size; returns the best corpus BLEU.

    Each hypothesis's score is intercept + gamma * slope; both are
    precomputed so the dense sweep stays affordable.
    """
    base_v = base.values if isinstance(base, Weights) else tuple(base)
    lines = [
        [
            (
                sum(w * f for w, f in zip(base_v, e.features)),
                sum(d * f for d, f in zip(direction, e.features)),
                e.tokens,
                e.stats,
            )
            for e in entries
        ]
        for entries in pool
    ]
    steps = int(round((hi - lo) / resolution))
    best = -1.0
    last_choice = None
    for k in range(steps + 1):
        gamma = lo + k * resolution
        choice = tuple(
            min(range(len(ls)), key=lambda i: (-(ls[i][0] + gamma * ls[i][1]), ls[i][2]))
            for ls in lines
        )
        if choice == last_choice:
            continue  # same selections, same BLEU
        last_choice = choice
        total = bleu.ZERO
        for ls, i in zip(lines, choice):
            total = _add(total, ls[i][3])
        value = bleu.corpus_bleu(total)
        if value > best:
            best = value
    return best


# ---- line search, one direction at a time ------------------------------------


def _dot(u, v):
    """All terms left to right onto 0.0: the float of Weights.dot, and of
    sum() before Python 3.12 made it compensated."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _envelope_reference(lines):
    """Upper envelope of (slope, intercept, index) lines as (start, index) segments."""
    by_slope = {}
    for m, b, idx in lines:
        cur = by_slope.get(m)
        if cur is None or b > cur[0] or (b == cur[0] and idx < cur[1]):
            by_slope[m] = (b, idx)
    ordered = sorted((m, b, idx) for m, (b, idx) in by_slope.items())
    hull = []  # (start, slope, intercept, index)
    for m, b, idx in ordered:
        while hull:
            start, hm, hb, hidx = hull[-1]
            cross = (hb - b) / (m - hm)
            if cross <= start:
                hull.pop()
            else:
                break
        start = -math.inf if not hull else cross
        hull.append((start, m, b, idx))
    return [(start, idx) for start, _, _, idx in hull]


def _add(*stats):
    """The element-wise sum of BLEU statistics, as a new tuple."""
    return tuple(sum(column) for column in zip(*stats))


def _negate(stats):
    return tuple(-c for c in stats)


def clipped_matches(stats):
    """The clipped n-gram matches of BLEU statistics, n = 1..MAX_ORDER."""
    return stats[: bleu.MAX_ORDER]


def line_search_reference(pool, base, direction):
    """mert.line_search computed directly: both dot products of every entry
    over all eight terms for each direction, a new statistics tuple per
    event, and a score for every interval, zero-width ones included."""
    base_v = base.values if isinstance(base, Weights) else tuple(base)

    envelopes = []
    events = []  # (gamma, sentence index, segment position)
    running = bleu.ZERO
    for s, entries in enumerate(pool):
        lines = []
        for idx, entry in enumerate(entries):
            lines.append((_dot(direction, entry.features), _dot(base_v, entry.features), idx))
        segments = _envelope_reference(lines)
        envelopes.append(segments)
        running = _add(running, entries[segments[0][1]].stats)
        for pos in range(1, len(segments)):
            events.append((segments[pos][0], s, pos))
    events.sort()

    intervals = []
    best_bleu, best_index = -1.0, 0
    cursor = -math.inf
    for gamma, s, pos in events:
        score = bleu.corpus_bleu(running)
        intervals.append((cursor, gamma, score))
        if score > best_bleu and cursor < gamma:
            best_bleu, best_index = score, len(intervals) - 1
        old = pool[s][envelopes[s][pos - 1][1]].stats
        new = pool[s][envelopes[s][pos][1]].stats
        running = _add(running, new, _negate(old))
        cursor = gamma
    score = bleu.corpus_bleu(running)
    intervals.append((cursor, math.inf, score))
    if score > best_bleu:
        best_bleu, best_index = score, len(intervals) - 1

    start, end, _ = intervals[best_index]
    if math.isinf(start) and math.isinf(end):
        step = 0.0
    elif math.isinf(start):
        step = end - 1.0
    elif math.isinf(end):
        step = start + 1.0
    else:
        step = (start + end) / 2.0
    return LineSearchResult(tuple(direction), step, best_bleu)


# ---- BLEU and the MERT loop, without reuse --------------------------------------


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def sentence_stats_reference(hypothesis, references):
    """bleu.sentence_stats with every reference's n-grams recounted per call."""
    hypothesis = tuple(hypothesis)
    references = [tuple(r) for r in references]
    matches, totals = [], []
    for n in range(1, bleu.MAX_ORDER + 1):
        hyp_counts = _ngram_counts(hypothesis, n)
        max_ref = Counter()
        for ref in references:
            for gram, c in _ngram_counts(ref, n).items():
                if c > max_ref[gram]:
                    max_ref[gram] = c
        matches.append(sum(min(c, max_ref[gram]) for gram, c in hyp_counts.items()))
        totals.append(sum(hyp_counts.values()))
    ref_len = min((len(r) for r in references), key=lambda L: (abs(L - len(hypothesis)), L))
    return tuple(matches) + tuple(totals) + (len(hypothesis), ref_len)


def pool_bleu_reference(pool, weights):
    total = bleu.ZERO
    for entries in pool:
        best = min(entries, key=lambda e: (-weights.dot(e.features), e.tokens))
        total = _add(total, best.stats)
    return bleu.corpus_bleu(total)


def optimize_reference(pool, weights, rng, log_lines):
    """mert.optimize_on_pool with every line search and pool BLEU computed
    on its own."""
    axes = [tuple(1.0 if j == i else 0.0 for j in range(N_FEATURES)) for i in range(N_FEATURES)]
    current = weights.l1_normalized()
    current_bleu = pool_bleu_reference(pool, current)
    while True:
        directions = axes + [
            tuple(rng.uniform(-1.0, 1.0) for _ in range(N_FEATURES)) for _ in range(N_FEATURES)
        ]
        best = max((line_search_reference(pool, current, d) for d in directions),
                   key=lambda r: r.best_bleu)
        if best.best_bleu - current_bleu <= GAIN_THRESHOLD:
            return current, current_bleu
        stepped = tuple(w + best.best_step * d for w, d in zip(current.values, best.direction))
        candidate = Weights(stepped).l1_normalized()
        candidate_bleu = pool_bleu_reference(pool, candidate)
        if candidate_bleu <= current_bleu:
            return current, current_bleu
        log_lines.append(
            "step %.6f along (%s): pool BLEU %.6f -> %.6f"
            % (best.best_step, " ".join("%.4f" % d for d in best.direction),
               current_bleu, candidate_bleu)
        )
        current, current_bleu = candidate, candidate_bleu


def mert_reference(dev_corpus, decoder_factory, initial, iterations, nbest_size, seed,
                   log_lines):
    """mert.mert with an n-best pass on every iteration, whatever its weights."""
    rng = random.Random(seed)
    initial = initial.l1_normalized()
    current = initial
    pool = [[] for _ in dev_corpus.pairs]
    seen = [set() for _ in dev_corpus.pairs]
    for it in range(1, iterations + 1):
        decoder = decoder_factory(current)
        new_entries = 0
        for s, pair in enumerate(dev_corpus.pairs):
            for translation in decoder.nbest(pair.source, nbest_size):
                if translation.tokens in seen[s]:
                    continue
                seen[s].add(translation.tokens)
                pool[s].append(PoolEntry(
                    translation.tokens, translation.features,
                    sentence_stats_reference(translation.tokens, [pair.target]),
                ))
                new_entries += 1
        log_lines.append("iteration %d: %d new pool entries, pool size %d"
                         % (it, new_entries, sum(len(p) for p in pool)))
        if new_entries == 0:
            break
        current, current_bleu = optimize_reference(pool, current, rng, log_lines)
        log_lines.append("iteration %d: pool BLEU %.6f" % (it, current_bleu))
    if pool_bleu_reference(pool, current) < pool_bleu_reference(pool, initial):
        current = initial
    return current
