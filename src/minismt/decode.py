"""Stack-based beam-search decoding under a log-linear model.

Hypotheses are organized into stacks by the number of covered source words.
Expansion applies every phrase-table option over an uncovered span within
the distortion limit, adding only the LM and distortion terms to the static
increment that collect_options stored on the option; hypotheses identical in
(coverage, LM state, last source position) are recombined, the better
holding the stack's slot and the losers kept in a map per stack, from the
key to its arcs. Nothing follows a complete hypothesis, so all of them
recombine into one goal state (the root, on the empty sentence), whose
lazy list of distinct strings decode() and nbest() read: each state lists
the distinct partial strings that reach it. The LM state is
lm.state_machine's: the longest suffix of the output that the model can
still read, so the hypotheses of one key score every continuation alike.
Pruning is histogram (stack size) plus an optional relative score window,
both measured on score + future-cost estimate - distortion weight * d, the
distortion still to pay (Moore & Quirk 2007) on a walk of the uncovered runs
from last_end + 1. A stack builds only what it can keep (Huang & Chiang
2007): an expansion waits in its target stack's heap of 2 x stack size
candidates, ranked on the same estimate with the option's LM-alone score in
place of its LM step, and only the survivors are LM-scored and built. The
goal's stack builds them all. The future cost scores each phrase's target
with the LM alone, from the empty context; neither term bounds the best
completion, so the ranking is an estimate, and an unpruned search is
unchanged.

Unlimited reordering is a distortion window as wide as the sentence, since
no jump inside n words is longer than n. An expansion can leave a gap that
no later jump within the limit can reach. Every word has a one-word option,
so whether a state can still finish depends only on its coverage and last
position; ranking passes over the states that a rule on the covered runs
between those positions shows cannot, so such dead ends never crowd the
live states out of a stack. Expansion walks only the starts inside the
distortion window and, from each, the spans by length up to the first
covered word, in collect_options' (start, end, target) order.

A hypothesis's key and the search's memos hold lm.state_machine's states as
they are. A search keeps one memo per kind of lookup for its one sentence,
since many expansions repeat the same lookup: the LM step of one word after
a state, from which a built step sums the words it reads (its target, and
</s> when it completes the sentence) from 0.0 in order, and the future cost
(from span costs keyed by span mask) and d's terms of a coverage, which the
estimates fill and the ranking reads. The LM is reached only through
lm.state_machine's step. A hit returns the float its first computation
gave, so a score does not depend on which lookups hit. The read-out follows
prev, which points at an expanded state or the root, and the losers of that
state's key, so a search holds only the expanded states and the goal with
their losers, the candidates of the stacks still filling and its memos.
The cyclic garbage collector is paused over a search and its read-out: a
hypothesis points only to its predecessor, so the graph is acyclic and
reference counting frees it; threads decoding at once share that one switch,
which costs only speed. A hypothesis keeps only its recombination key and
its step's LM value; the 8-feature increment is built for the partial
strings the read-out lists, each step's distortion worked out again from its
predecessor's key, and added to its predecessor's features. Its weighted
score is summed inline, term by term in Weights.dot's order from 0.0, from
products of the option's static terms taken once per search, which gives the
same float as Weights.dot. A returned translation, from decode() as from
nbest(), carries only its tokens, features and score.

translate_all decodes a list of sentences on every CPU in the process's
affinity mask (`taskset` limits it), through parallel.fork_map. Each search
depends only on the decoder and its sentence, so forked workers each take
one sentence at a time and the results come back in input order, the same
values a serial loop gives whatever the number of CPUs.

The eight features, in order (FEATURE_NAMES): language model log10
probability; forward phrase translation log-prob and lexical weight;
reverse phrase translation log-prob and lexical weight; negated
distortion cost; negated word count (unknown-word copies pay an extra
penalty here); and negated phrase count. A hypothesis score is the
running sum of each step's weighted feature increment, so equal-state
comparisons carry over to completions exactly; it agrees with the dot
product of weights and accumulated features to within 1e-9.
"""

import gc
import heapq
import math
from collections import defaultdict
from dataclasses import dataclass

from . import lm as lm_mod
from .errors import FormatError, MinismtError, ParameterError, at_least, read_lines, write_lines
from .parallel import fork_map
from .phrases import distortion_cost, log10_scores

FEATURE_NAMES = (
    "lm",
    "phi_fwd",
    "lex_fwd",
    "phi_rev",
    "lex_rev",
    "distortion",
    "word_penalty",
    "phrase_penalty",
)
N_FEATURES = 8

UNKNOWN_WORD_PENALTY = 10.0  # extra word-penalty units per copied-through token
# a stack below the goal builds this many times stack_size of its candidates
# at most; 1 drops states that ranking would keep, and adds search errors
_BUILD_FACTOR = 2
check_stack_size = at_least(1, "stack_size")
check_beam_threshold = at_least(0, "beam_threshold")
check_distortion_limit = at_least(0, "distortion_limit")
check_nbest_size = at_least(1, "nbest size")

_ZERO = (0.0,) * N_FEATURES


@dataclass(frozen=True)
class Weights:
    values: tuple

    def __post_init__(self):
        if len(self.values) != N_FEATURES or not all(
            isinstance(v, float) and math.isfinite(v) for v in self.values
        ):
            raise ParameterError("weights must be %d finite floats" % N_FEATURES)

    @classmethod
    def uniform(cls):
        return cls((1.0 / N_FEATURES,) * N_FEATURES)

    def dot(self, features):
        total = 0.0
        for w, f in zip(self.values, features):
            total += w * f
        return total

    def scaled(self, c):
        return Weights(tuple(w * c for w in self.values))

    def l1_normalized(self):
        # summed left to right: sum() of floats rounds differently from 3.12 on
        norm = 0.0
        for w in self.values:
            norm += abs(w)
        return self if norm == 0.0 else self.scaled(1.0 / norm)

    def to_file(self, path):
        write_lines(path, ("%s %.12g" % item for item in zip(FEATURE_NAMES, self.values)))

    @classmethod
    def from_file(cls, path):
        seen = {}
        for lineno, raw in enumerate(read_lines(path), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, value = line.split()
                value = float(value)
            except ValueError:
                raise FormatError("%s line %d: expected 'name value', found %r"
                                  % (path, lineno, line))
            if name not in FEATURE_NAMES:
                raise FormatError("%s line %d: unknown weight %r" % (path, lineno, name))
            if name in seen:
                raise FormatError("%s line %d: duplicate weight %r" % (path, lineno, name))
            if not math.isfinite(value):
                raise FormatError("%s line %d: weight %r is not finite" % (path, lineno, name))
            seen[name] = value
        missing = [n for n in FEATURE_NAMES if n not in seen]
        if missing:
            raise FormatError("%s: missing weight %s" % (path, ", ".join(missing)))
        return cls(tuple(seen[n] for n in FEATURE_NAMES))


@dataclass(frozen=True)
class DecoderConfig:
    stack_size: int
    beam_threshold: float | None  # None disables threshold pruning
    distortion_limit: int | None  # None means unlimited reordering

    def __post_init__(self):
        check_stack_size(self.stack_size)
        if self.beam_threshold is not None:
            check_beam_threshold(self.beam_threshold)
        if self.distortion_limit is not None:
            check_distortion_limit(self.distortion_limit)


@dataclass(frozen=True)
class Option:
    start: int
    end: int  # exclusive
    target: tuple
    mask: int  # the covered source positions as a bitmask
    static: tuple  # the feature increment without LM and distortion, whose slots hold 0.0


@dataclass(frozen=True)
class Translation:
    tokens: tuple
    features: tuple
    score: float


@dataclass(slots=True, eq=False)
class _Hyp:
    key: object  # its recombination key: see _search
    score: float
    inc_score: float
    prev: object
    option: object
    lm_score: float  # the step's LM feature, </s> included
    serial: int


def collect_options(sentence, table):
    """Applicable phrase options per span, plus copy-through unknowns, in
    (start, end, target) order.

    A source word with no single-word table entry gets an unknown option
    that copies it to the output at a fixed extra word penalty, so every
    sentence is fully coverable. The table lists each phrase's targets
    sorted, so walking the spans by start, then end, gives the order.
    """
    n = len(sentence)
    options = []
    max_len = max(table.max_source_len, 1)
    for i in range(n):
        for j in range(i + 1, min(n, i + max_len) + 1):
            mask = ((1 << (j - i)) - 1) << i
            entries = table.options(sentence[i:j])
            if j == i + 1 and not entries:  # an unknown word, copied through
                static = (0.0,) * 6 + (-1.0 - UNKNOWN_WORD_PENALTY, -1.0)
                options.append(Option(i, j, (sentence[i],), mask, static))
            for target, scores in entries:
                static = (0.0, *log10_scores(scores), 0.0, -float(len(target)), -1.0)
                options.append(Option(i, j, target, mask, static))
    return options


class Decoder:
    """Reusable search engine over one phrase table / LM / weight vector."""

    def __init__(self, table, model, weights, config):
        self.table = table
        self.weights = weights
        self.config = config
        if (lm_mod.UNK,) not in model.probs:
            # without <unk> mass (an ARPA file from another toolkit) unseen words score -inf
            raise ParameterError("the language model has no <unk> probability; "
                                 "decode with a smoothed model")
        lm_state, self._lm_step = lm_mod.state_machine(model)
        self._lm_start = lm_state((lm_mod.START,))

    # ---- future cost -------------------------------------------------

    def future_cost_table(self, sentence, options, estimates=None):
        """span (i, j exclusive), keyed by its mask (1 << j) - (1 << i) as in
        Option.mask -> estimated score for translating it with the options: the
        best sum of _option_estimate over the span's segmentations. estimates,
        if given, holds each option's _option_estimate, in order."""
        n = len(sentence)
        if estimates is None:
            estimates = map(self._option_estimate, options)
        best = {}
        for o, estimate in zip(options, estimates):
            best[o.mask] = max(best.get(o.mask, -math.inf), estimate)
        table = {}
        for length in range(1, n + 1):
            for i in range(n - length + 1):
                low = 1 << i
                span = (low << length) - low
                value = best.get(span, -math.inf)
                for k in range(i + 1, i + length):
                    split = table[(1 << k) - low] + table[span + low - (1 << k)]
                    if split > value:
                        value = split
                table[span] = value
        return table

    def _option_estimate(self, option):
        """The option's weighted score with the LM score of its target alone:
        the first word from the empty context, each later one after the words
        before it (Koehn 2010, ch. 6)."""
        lm_score, lm_state = 0.0, ()
        for w in option.target:
            p, lm_state = self._lm_step(lm_state, w)
            lm_score += p
        return self.weights.dot((lm_score,) + option.static[1:])

    # ---- search ------------------------------------------------------

    def _search(self, sentence):
        """(goal, arcs): the goal's hypothesis, None if none completes, and
        the losers of the goal's and the expanded states' keys. Of two
        hypotheses of one key the better holds the slot, the first built on
        a tie, and the other is a loser: which holds it changes no read-out.

        A stack below the goal keeps the _BUILD_FACTOR * stack_size
        candidates of the best estimate, the first generated on a tie: the
        predecessor's score plus the jump's distortion term, the option's
        _option_estimate and the new coverage's future cost less the
        distortion still to pay, from the coverage memo _pruned reads. At
        its turn they are LM-scored word by word, built and recombined in the
        order and with the serials they were generated with, so a stack that
        drops none is built as if none could be."""
        n = len(sentence)
        options = collect_options(sentence, self.table)
        estimates = [self._option_estimate(o) for o in options]
        future_table = self.future_cost_table(sentence, options, estimates)
        full_mask = (1 << n) - 1
        step = self._lm_step
        w0, w1, w2, w3, w4, w5, w6, w7 = self.weights.values
        budget = _BUILD_FACTOR * self.config.stack_size

        root = _Hyp((0, self._lm_start, -1), 0.0, 0.0, None, None, 0.0, 0)
        # each stack's (estimate, -serial, predecessor, option entry,
        # distortion term); below the goal a heap, the worst first
        pending = [[] for _ in range(n + 1)]
        arcs = {}  # the losers of the expanded states' keys and the goal's
        serial = 1
        # no jump inside the sentence is longer than n, so n is no limit
        dl = n if self.config.distortion_limit is None else self.config.distortion_limit
        # the options of each start as (mask, last position, options) per
        # span, by end; options come in span order, so walking the starts in
        # order runs expansions and their serials in source order. Each
        # option comes with its weighted static terms, the products that
        # the step's score adds, and its estimate
        spans = [[] for _ in range(n)]
        for option, estimate in zip(options, estimates):
            group = spans[option.start]
            if not group or group[-1][0] != option.mask:
                group.append((option.mask, option.end - 1, []))
            s = option.static
            group[-1][2].append((option, w1 * s[1], w2 * s[2], w3 * s[3], w4 * s[4],
                                 w6 * s[6], w7 * s[7], estimate))
        # memos of this sentence's search, dropped when it returns
        word_memo = {}  # (LM state, word) -> (log P(word | state), next LM state)
        rests = {}  # coverage -> _rest_of(coverage), for the estimates and _pruned
        can_finish = _liveness(full_mask, dl)

        # the root, alone in stack 0, is expanded without ranking: it can
        # always finish monotonically. Stack 0 is keyed by 0, the empty
        # sentence's full_mask, so that sentence's goal is the root
        kept, stack, losers = [root], {0: root}, {}
        for covered in range(1, n + 1):
            for hyp in kept:
                before, _, last_end = hyp.key
                for start in range(max(0, last_end + 1 - dl), min(n, last_end + 2 + dl)):
                    if before >> start & 1:
                        continue
                    distortion_term = w5 * -float(distortion_cost(last_end, start))
                    jumped = hyp.score + distortion_term
                    for mask, end, group in spans[start]:
                        if before & mask:
                            break  # the longer spans from this start overlap too
                        coverage = before | mask
                        heap = pending[covered + end - start]
                        if coverage == full_mask:
                            for entry in group:
                                heap.append((None, -serial, hyp, entry, distortion_term))
                                serial += 1
                            continue
                        rest = rests.get(coverage)
                        if rest is None:
                            rest = rests[coverage] = _rest_of(coverage, full_mask, future_table)
                        future, first, inner = rest
                        base = jumped + future - w5 * (abs(first - end - 1) + inner)
                        for entry in group:
                            estimate = base + entry[7]
                            if len(heap) < budget:
                                heapq.heappush(heap, (estimate, -serial, hyp, entry,
                                                      distortion_term))
                            elif estimate > heap[0][0]:  # a tie goes to the earlier one
                                heapq.heapreplace(heap, (estimate, -serial, hyp, entry,
                                                         distortion_term))
                            serial += 1
            final = covered == n
            stack, losers = {}, defaultdict(list)
            candidates, pending[covered] = pending[covered], None
            candidates.sort(key=lambda c: -c[1])  # in the order generated
            for _, neg_serial, hyp, entry, distortion_term in candidates:
                option, t1, t2, t3, t4, t6, t7, _ = entry
                lm_score, next_lm = 0.0, hyp.key[1]
                for w in (option.target + (lm_mod.END,) if final else option.target):
                    hit = word_memo.get((next_lm, w))
                    if hit is None:
                        hit = word_memo[next_lm, w] = step(next_lm, w)
                    lm_score += hit[0]
                    next_lm = hit[1]
                # Weights.dot of the step's features, term by term in its
                # order from 0.0, so the float is the same; scores accumulate
                # incrementally so that equal-key comparisons carry over to
                # completions exactly (float addition is monotone)
                inc_score = (0.0 + w0 * lm_score + t1 + t2 + t3 + t4
                             + distortion_term + t6 + t7)
                key = full_mask if final else (hyp.key[0] | option.mask, next_lm, option.end - 1)
                new = _Hyp(key, hyp.score + inc_score, inc_score, hyp, option, lm_score,
                           -neg_serial)
                cur = stack.setdefault(key, new)
                if cur is not new:
                    if new.score > cur.score:
                        stack[key] = new
                        new = cur
                    losers[key].append(new)
            if not final:
                # the read-out reaches no other state of the stack, so only
                # the expanded states' losers are kept
                kept = self._pruned(stack, rests, can_finish)
                arcs.update((h.key, losers[h.key]) for h in kept if h.key in losers)
        arcs.update(losers)  # every key of the last stack is full_mask
        return stack.get(full_mask), arcs

    def _pruned(self, stack, rests, can_finish):
        """The stack's hypotheses to expand, best first on score + future cost
        - distortion weight * d, which the beam threshold is measured on too.
        d jumps from last_end + 1 to the first open position, then over the
        covered positions between open runs, which depend on the coverage.

        A state that can_finish rejects is passed over, as if it had never
        been built: it takes no place in the stack and does not set the beam.
        Liveness depends on the coverage and last_end alone, so a dead state
        never shares its recombination key with a live one, and only the
        states ranked high enough to be kept are tested. rests maps each
        coverage of the stack to its _rest_of, as _search's ranking filled it.
        """
        ranked = []
        w_distortion = self.weights.values[5]
        for h in stack.values():
            coverage, _, last_end = h.key
            future, first, inner = rests[coverage]
            d = abs(first - last_end - 1) + inner
            # serials are unique, so the tuples never compare hypotheses
            ranked.append((-(h.score + future - w_distortion * d), h.serial, h))
        ranked.sort()
        threshold, kept = self.config.beam_threshold, []
        for neg, _, h in ranked:
            if not can_finish(h.key[0], h.key[2]):
                continue
            if threshold is not None:
                if not kept:
                    cutoff = -neg - threshold
                elif -neg < cutoff:
                    break
            kept.append(h)
            if len(kept) == self.config.stack_size:
                break
        return kept

    # ---- public API ----------------------------------------------------

    def decode(self, sentence):
        """The best translation, its tokens, features and score: the first
        entry of nbest()."""
        return self._kbest(sentence, 1)[0]

    def nbest(self, sentence, n):
        """The n best distinct translations, best score first, each with the
        features of its best derivation in the search graph.

        Ties are broken toward the lexicographically smaller target string.
        Fewer than n entries come back only when the search graph holds
        fewer than n distinct target strings.
        """
        check_nbest_size(n)
        return self._kbest(sentence, n)

    def _kbest(self, sentence, n):
        # an acyclic graph: reference counting frees it, the collector finds nothing
        enabled = gc.isenabled()
        gc.disable()
        try:
            goal, arcs = self._search(tuple(sentence))
            if goal is None:
                raise MinismtError("search produced no complete hypothesis")
            lists = _DistinctLists(arcs)
            # the goal's list holds distinct strings at non-increasing scores;
            # an entry scoring as the n-th can still win the tie toward the
            # smaller string, so the read-out goes on while they are equal
            best = []
            entry = lists.kth(goal, 0)
            while entry is not None and (len(best) < n or not entry[0] < best[-1][0]):
                best.append(entry)
                entry = lists.kth(goal, len(best))
            best.sort(key=lambda e: (-e[0], e[1]))
            return [Translation(tokens, features, score) for score, tokens, features in best[:n]]
        finally:
            if enabled:
                gc.enable()


class _DistinctLists:
    """A lazy list per recombined state of the distinct partial strings that
    reach it, best first (Huang & Chiang 2005, Better k-best parsing, Alg. 3;
    Mohri & Riley 2002). Two paths into one state with the same partial
    string have the same completions, the lower one scoring lower with each,
    so a state skips a path whose string it has listed: the goal's k-th
    entry is the k-th best distinct translation."""

    def __init__(self, arcs):
        self._arcs = arcs  # recombination key -> the losers of its state
        self._state = {}  # rep -> (entries so far, their strings, heap of candidates)

    def kth(self, rep, k):
        """The k-th best distinct (score, tokens, features) reaching rep's
        state, or None."""
        state = self._state.get(rep)
        if state is None:
            # every entry's rank-0 path goes through its predecessor's best
            # path, and predecessors are representatives, so the rank-0
            # value is just the entry's own search score
            heap = [(-entry.score, entry.serial, entry, 0)
                    for entry in [rep, *self._arcs.get(rep.key, ())]]
            heapq.heapify(heap)
            state = self._state[rep] = ([], set(), heap)
        entries, listed, heap = state
        while len(entries) <= k and heap:
            neg, _, entry, rank = heapq.heappop(heap)
            if entry.prev is None:  # the root: one entry, popped at rank 0 only
                entries.append((-neg, (), _ZERO))
                continue
            # an entry at rank r >= 1 was pushed once its predecessor's r-th
            # entry was found, and every state has a rank-0 entry
            _, tokens, features = self.kth(entry.prev, rank)
            nxt = self.kth(entry.prev, rank + 1)
            if nxt is not None:
                heapq.heappush(heap, (-(nxt[0] + entry.inc_score), entry.serial, entry, rank + 1))
            option = entry.option
            tokens += option.target
            if tokens in listed:
                continue
            listed.add(tokens)
            s = option.static
            # prev is the state the step was expanded from, whose key holds
            # the last_end the search measured the jump from
            distortion = distortion_cost(entry.prev.key[2], option.start)
            inc = (entry.lm_score, s[1], s[2], s[3], s[4], -float(distortion), s[6], s[7])
            entries.append((-neg, tokens, tuple(f + d for f, d in zip(features, inc))))
        return entries[k] if k < len(entries) else None


def _rest_of(coverage, full_mask, table):
    """(future, first, inner): the future cost of the uncovered runs, summed
    left to right, the first uncovered position and the covered positions
    between uncovered runs, so a state ending at last_end has
    d = |first - last_end - 1| + inner."""
    gaps = full_mask & ~coverage
    first = (gaps & -gaps).bit_length() - 1
    inner = gaps.bit_length() - first - gaps.bit_count()
    future = 0.0
    while gaps:
        low = gaps & -gaps  # the first position of the leftmost run
        carry = gaps + low  # the run cleared, and the bit just past its end set
        future += table[(carry & -carry) - low]  # the run's span mask
        gaps &= carry
    return future, first, inner


def _liveness(full_mask, dl):
    """`can_finish(coverage, last_end)`, false for a state that can no longer
    cover every word of the sentence within distortion limit dl.

    Every word has a one-word option, so this depends on the state alone.
    Take the uncovered positions together with last_end, and the covered
    runs between them. A jump over a run longer than dl is out of reach in
    either direction, and a jump back over a run of dl - 1 or more below
    last_end is out of reach too, so such a state is dead; under dl <= 1 that
    holds for a jump back over no run at all. A state that passes may still
    be dead (rarely: the tests bound it), never the reverse.
    """
    def can_finish(coverage, last_end):
        g = (full_mask & ~coverage) | 1 << last_end
        low = g & -g
        if dl <= 1 and low.bit_length() <= last_end:
            return False  # a position below last_end is open, and no jump back is allowed
        # the covered positions between the first and the last of g
        runs = ((1 << (g.bit_length() - 1)) - (low << 1)) & ~g
        while runs:
            first = runs & -runs  # the first position of the leftmost run
            carry = runs + first  # the run cleared, and the bit just past its end set
            after = carry & -carry  # the position of g that ends the run
            length = after.bit_length() - first.bit_length()
            if length > dl or (length >= dl - 1 and after.bit_length() <= last_end + 1):
                return False
            runs &= carry
        return True

    return can_finish


# ---- decoding a sentence list on every CPU -----------------------------


def translate_all(decoder, sentences, n):
    """Yield decoder.nbest(s, n) for each sentence, in input order.

    The sentences are decoded through parallel.fork_map, one at a time per
    worker; the decoder reaches the workers by fork inheritance and is never
    pickled. A MinismtError raised for a sentence is raised here, with its
    class and message, once the results before it have been yielded. A bad
    n is refused here, before any worker is forked or sentence decoded.
    """
    check_nbest_size(n)
    return fork_map(lambda sentence: decoder.nbest(sentence, n), sentences)
