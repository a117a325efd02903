"""Outside-in tracing of minismt's layers for the benchmark's traced run.

`Tracer.install` replaces public functions at the names their callers look
up (for example `minismt.lm.logprob`, which the decoder reaches as
`lm_mod.logprob`, and `Decoder.nbest` on the class). Every wrapped call
pushes a frame so that each layer's self time is its duration minus the
time of the wrapped calls inside it. Calls named in SPANS also record a
span (id, name, start, end, parent); the rest, the hottest calls among
them, only add to a per-name count and cumulative time, so memory stays
bounded. Spans stay in memory until `write_spans`.
"""

import functools
import json
import time

from minismt import align, artok, bleu, cli, corpus, decode, lm, mert, phrases, pipeline
from minismt.errors import MinismtError

MODULES = (corpus, artok, lm, align, phrases, decode, mert, bleu, pipeline, cli)

# (module, attribute path): the public calls made across module boundaries.
TRACED = (
    (corpus, "load_parallel"), (corpus, "clean"), (corpus, "stats"), (corpus, "format_stats_table"),
    (artok, "tokenize"), (artok, "detokenize"), (artok, "load_lexicon"),
    (lm, "train"), (lm, "write_arpa"), (lm, "read_arpa"), (lm, "logprob"),
    (align, "em_train"), (align, "transpose_corpus"), (align, "viterbi_align"),
    (align, "symmetrize"), (align, "write_alignments"), (align, "read_alignments"),
    (align, "write_lexicon"), (align, "read_lexicon"),
    (phrases, "extract_corpus"), (phrases, "score"), (phrases, "write_table"),
    (phrases, "read_table"),
    (decode, "collect_options"), (decode, "Decoder.__init__"), (decode, "Decoder.decode"),
    (decode, "Decoder.nbest"), (decode, "Decoder.future_cost_table"),
    (mert, "mert"), (mert, "optimize_on_pool"), (mert, "line_search"), (mert, "pool_bleu"),
    (mert, "build_pool_entry"),
    (bleu, "sentence_stats"), (bleu, "corpus_stats"), (bleu, "corpus_bleu"),
    (bleu, "format_report"),
    (pipeline, "run_pipeline"), (pipeline, "run_stage"),
    (cli, "main"),
)

# stage, sentence and MERT-iteration calls, plus the coarse layer entry points
SPANS = frozenset({
    "corpus.load_parallel", "corpus.clean", "artok.load_lexicon",
    "lm.train", "lm.write_arpa", "lm.read_arpa",
    "align.em_train", "align.write_alignments", "align.read_alignments",
    "align.write_lexicon", "align.read_lexicon",
    "phrases.extract_corpus", "phrases.score", "phrases.write_table", "phrases.read_table",
    "decode.Decoder.decode", "decode.Decoder.nbest",
    "mert.mert", "mert.optimize_on_pool",
    "pipeline.run_pipeline", "cli.main",
})

STAGES = pipeline.STAGES


def _short(module):
    return module.__name__.rsplit(".", 1)[1]


class _Frame:
    __slots__ = ("name", "start", "child", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    def __init__(self):
        self.calls = {}  # name -> call count
        self.total = {}  # name -> inclusive seconds
        self.self_time = {}  # name -> seconds not covered by wrapped calls inside
        self.counters = {}  # values read from arguments and results
        self.spans = []  # [id, name, start, end, parent id]
        self._stack = []
        self._paused = False
        self._excluded = 0.0  # seconds spent in untraced probes, hidden from every frame

    # ---- clock and bookkeeping -----------------------------------------

    def clock(self):
        return time.perf_counter() - self._excluded

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def _enter(self, name):
        span_id = None
        if name in SPANS or name.startswith("pipeline.stage."):
            span_id = len(self.spans)
            parent = self._stack[-1].span_id if self._stack else None
            self.spans.append([span_id, name, 0.0, 0.0, parent])
        frame = _Frame(name, self.clock(), span_id)
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = self.clock()
        self._stack.pop()
        duration = end - frame.start
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        if frame.span_id is not None:
            span = self.spans[frame.span_id]
            span[2], span[3] = frame.start, end
        return duration

    def untraced(self, fn, *args):
        """Run fn with tracing paused; its time is hidden from every open frame."""
        self._paused = True
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self._excluded += elapsed
            self._paused = False
            self.add("trace.probe_s", elapsed)

    def untraced_seconds(self, fn, *args):
        """Seconds fn(*args) takes run as untraced() runs it; a MinismtError still counts."""
        start = time.perf_counter()
        try:
            self.untraced(fn, *args)
        except MinismtError:
            pass
        return time.perf_counter() - start

    # ---- wrapping ------------------------------------------------------

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            # stage calls are named by their stage, so each stage's time reads back
            frame = tracer._enter(name if name != "pipeline.run_stage"
                                  else "pipeline.stage.%s" % args[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame)
                if isinstance(exc, MinismtError):
                    tracer.add(name + ".raised", 1)
                raise
            duration = tracer._exit(frame)
            if observe is not None:
                observe(tracer, args, kwargs, result, duration)
            return result

        return wrapper

    def install(self):
        """Wrap every TRACED call in place; the tracer stays installed for the process."""
        for module, path in TRACED:
            name = "%s.%s" % (_short(module), path)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, _OBSERVERS.get(name))
            setattr(owner, attr, wrapped)
            if owner is module:
                # rebind `from x import f` copies held by the other modules
                for other in MODULES:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)

    # ---- results -------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans}, f)
            f.write("\n")

    def metrics(self):
        """The per-layer metrics, by name, as (value, unit)."""
        c, t = self.calls, self.total
        n = self.counters

        def calls(name):
            return c.get(name, 0)

        def secs(name):
            return t.get(name, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "corpus.load_parallel_s": (secs("corpus.load_parallel"), "s"),
            "corpus.clean_s": (secs("corpus.clean"), "s"),
            "corpus.pairs_in": (n.get("corpus.pairs_in", 0), "count"),
            "corpus.pairs_kept": (n.get("corpus.pairs_kept", 0), "count"),
            "artok.tokenize_calls": (calls("artok.tokenize"), "count"),
            "artok.tokenize_s": (secs("artok.tokenize"), "s"),
            "artok.detokenize_s": (secs("artok.detokenize"), "s"),
            "lm.train_s": (secs("lm.train"), "s"),
            "lm.ngrams": (n.get("lm.ngrams", 0), "count"),
            "lm.write_arpa_s": (secs("lm.write_arpa"), "s"),
            "lm.read_arpa_s": (secs("lm.read_arpa"), "s"),
            "lm.logprob_calls": (calls("lm.logprob"), "count"),
            "lm.logprob_s": (secs("lm.logprob"), "s"),
            "align.em_train_s": (secs("align.em_train"), "s"),
            "align.viterbi_s": (secs("align.viterbi_align"), "s"),
            "align.symmetrize_s": (secs("align.symmetrize"), "s"),
            "align.links": (n.get("align.links", 0), "count"),
            "align.em_final_loglik": (n.get("align.em_final_loglik", 0.0), "nats"),
            "phrases.extract_s": (secs("phrases.extract_corpus"), "s"),
            "phrases.pairs_extracted": (n.get("phrases.pairs_extracted", 0), "count"),
            "phrases.score_s": (secs("phrases.score"), "s"),
            "phrases.table_entries": (n.get("phrases.table_entries", 0), "count"),
            "phrases.write_table_s": (secs("phrases.write_table"), "s"),
            "phrases.entries_written": (n.get("phrases.entries_written", 0), "count"),
            "phrases.read_table_s": (secs("phrases.read_table"), "s"),
            "decode.sentences": (calls("decode.Decoder.decode"), "count"),
            "decode.failed": (n.get("decode.Decoder.decode.raised", 0), "count"),
            "decode.decode_s": (secs("decode.Decoder.decode"), "s"),
            "decode.collect_options_s": (secs("decode.collect_options"), "s"),
            "decode.future_cost_s": (secs("decode.Decoder.future_cost_table"), "s"),
            "decode.model_score_sum": (n.get("decode.model_score_sum", 0.0), "score"),
            "decode.nbest_calls": (calls("decode.Decoder.nbest"), "count"),
            "decode.nbest_s": (secs("decode.Decoder.nbest"), "s"),
            "decode.kbest_s": (n.get("decode.kbest_s", 0.0), "s"),
            "decode.nbest_fill": (ratio(n.get("decode.nbest_returned", 0),
                                        n.get("decode.nbest_requested", 0)), "ratio"),
            "mert.optimize_s": (secs("mert.optimize_on_pool"), "s"),
            "mert.optimize_calls": (calls("mert.optimize_on_pool"), "count"),
            "mert.line_search_calls": (calls("mert.line_search"), "count"),
            "mert.line_search_s": (secs("mert.line_search"), "s"),
            "mert.pool_bleu_s": (secs("mert.pool_bleu"), "s"),
            "mert.pool_entries": (calls("mert.build_pool_entry"), "count"),
            "mert.new_entry_ratio": (ratio(calls("mert.build_pool_entry"),
                                           n.get("decode.nbest_returned", 0)), "ratio"),
            "bleu.sentence_stats_calls": (calls("bleu.sentence_stats"), "count"),
            "bleu.sentence_stats_s": (secs("bleu.sentence_stats"), "s"),
            "bleu.corpus_bleu_calls": (calls("bleu.corpus_bleu"), "count"),
            "bleu.corpus_bleu_s": (secs("bleu.corpus_bleu"), "s"),
        }
        for stage in STAGES:
            key = "pipeline.stage.%s" % stage
            out[key + "_s"] = (secs(key), "s")
        pipeline_self = sum(v for k, v in self.self_time.items() if k.startswith("pipeline."))
        out["pipeline.self_s"] = (pipeline_self, "s")
        out["cli.self_s"] = (self.self_time.get("cli.main", 0.0), "s")
        return out


# observers read counts from a traced call's arguments and result


def _clean(tracer, args, kwargs, result, duration):
    tracer.add("corpus.pairs_in", len(args[0].pairs))
    tracer.add("corpus.pairs_kept", len(result.pairs))


def _lm_train(tracer, args, kwargs, result, duration):
    tracer.add("lm.ngrams", len(result.probs))


def _em_train(tracer, args, kwargs, result, duration):
    tracer.add("align.em_final_loglik", result.log_likelihood_history[-1])


def _symmetrize(tracer, args, kwargs, result, duration):
    tracer.add("align.links", len(result.links))


def _extract_corpus(tracer, args, kwargs, result, duration):
    tracer.add("phrases.pairs_extracted", sum(len(pairs) for pairs in result))


def _score(tracer, args, kwargs, result, duration):
    tracer.add("phrases.table_entries", len(result))


def _write_table(tracer, args, kwargs, result, duration):
    prune = args[2] if len(args) > 2 else kwargs.get("prune", phrases.TABLE_PRUNE_LIMIT)
    tracer.add("phrases.entries_written",
               sum(min(len(options), prune) for options in args[0].by_source.values()))


def _decode(tracer, args, kwargs, result, duration):
    tracer.add("decode.model_score_sum", result.score)


def _nbest(tracer, args, kwargs, result, duration):
    decoder, sentence, n = args[0], args[1], args[2] if len(args) > 2 else kwargs["n"]
    tracer.add("decode.nbest_requested", n)
    tracer.add("decode.nbest_returned", len(result))
    # k-best extraction time: an n-best call minus a 1-best decode of the same
    # sentence, both run again untraced so that neither side carries the
    # tracer's cost; the probes are hidden from the enclosing spans
    tracer.add("decode.kbest_s", tracer.untraced_seconds(decoder.nbest, sentence, n)
               - tracer.untraced_seconds(decoder.decode, sentence))


_OBSERVERS = {
    "corpus.clean": _clean,
    "lm.train": _lm_train,
    "align.em_train": _em_train,
    "align.symmetrize": _symmetrize,
    "phrases.extract_corpus": _extract_corpus,
    "phrases.score": _score,
    "phrases.write_table": _write_table,
    "decode.Decoder.decode": _decode,
    "decode.Decoder.nbest": _nbest,
}
