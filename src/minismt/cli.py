"""Command-line interface: one subcommand per pipeline operation.

Filter-style commands (tokenize, detokenize, query-lm, decode, nbest) read
one sentence per line from stdin or a file and write to stdout. Failures
exit nonzero after printing a single machine-parsable line of the form
``ERROR <category>: <message>`` to stderr.
"""

import argparse
import sys
from pathlib import Path

from . import align, artok, bleu, corpus, lm, pipeline
from .decode import Decoder, Weights, translate_all
from .errors import CorpusAlignmentError, MinismtError, read_lines

_DEFAULTS = pipeline.PipelineConfig()  # the pipeline's defaults are the CLI's too
# every character at which str.splitlines ends a line, escaped as repr() writes
# it, so that a message quoting a path or a field stays on its one ERROR line
_ONE_LINE = str.maketrans({c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _load_artok(args):
    files = pipeline.PipelineConfig(inventory=args.inventory or "", lexicon=args.lexicon or "")
    inventory = artok.CliticInventory.load(files.inventory_path())
    lexicon = artok.load_lexicon(files.lexicon_path())
    return artok.Scheme.parse(args.scheme), inventory, lexicon


def _cmd_tokenize(args):
    scheme, inventory, lexicon = _load_artok(args)
    sentences = corpus.read_sentences(args.input)
    for tokens in artok.tokenize_all(sentences, scheme, inventory, lexicon):
        print(" ".join(tokens))
    return 0


def _cmd_detokenize(args):
    for sentence in corpus.read_sentences(args.input):
        print(" ".join(artok.detokenize(sentence)))
    return 0


def _cmd_stats(args):
    corp = corpus.load_parallel(args.source, args.target)
    # each side's label is its file name's suffix: en for train.en
    labels = Path(args.source).suffix[1:] or "src", Path(args.target).suffix[1:] or "tgt"
    for line in corpus.format_stats_table(corpus.stats(corp), *labels):
        print(line)
    return 0


def _cmd_train_lm(args):
    pipeline.stage_lm(args.corpus, args.output, order=args.order)
    print("wrote %s (order %d)" % (args.output, args.order))
    return 0


def _cmd_query_lm(args):
    model = lm.read_arpa(args.model)
    sentences = corpus.read_sentences(args.input)
    for s in sentences:
        print("%.6f" % lm.sentence_logprob(model, s))
    if sentences:
        print("perplexity %.6f" % lm.perplexity(model, sentences))
    return 0


def _cmd_align(args):
    pairs = pipeline.stage_align(args.source, args.target, args.output,
                                 args.output + ".lex.fwd", args.output + ".lex.bwd",
                                 iterations=args.iterations, heuristic=args.heuristic)
    print("wrote %s (%d pairs)" % (args.output, pairs))
    return 0


def _cmd_extract(args):
    entries = pipeline.stage_phrases(args.source, args.target, args.alignments, args.lex_fwd,
                                     args.lex_bwd, args.output, max_len=args.max_len)
    print("wrote %s (%d entries)" % (args.output, entries))
    return 0


def _decoder_from_args(args):
    table, model, config = pipeline.load_search(
        args.table, args.lm, args.stack_size, args.beam_threshold, args.distortion_limit)
    weights = Weights.from_file(args.weights) if args.weights else Weights.uniform()
    return Decoder(table, model, weights, config)


def _cmd_decode(args):
    decoder = _decoder_from_args(args)
    for nbest in translate_all(decoder, corpus.read_sentences(args.input), 1):
        print(" ".join(nbest[0].tokens))
    return 0


def _cmd_nbest(args):
    decoder = _decoder_from_args(args)
    for idx, nbest in enumerate(translate_all(decoder, corpus.read_sentences(args.input), args.n)):
        for t in nbest:
            print(
                "%d ||| %s ||| %s ||| %.6f"
                % (idx, " ".join(t.tokens), " ".join("%.6f" % f for f in t.features), t.score)
            )
    return 0


def _cmd_mert(args):
    pipeline.stage_mert(args.dev_source, args.dev_target, args.table, args.lm, args.output,
                        args.output + ".log", iterations=args.iterations, nbest=args.nbest,
                        seed=args.seed, stack_size=args.stack_size,
                        beam_threshold=args.beam_threshold,
                        distortion_limit=args.distortion_limit)
    print("wrote %s" % args.output)
    return 0


def _cmd_bleu(args):
    hyps = corpus.read_sentences(args.hypothesis)
    ref_files = [corpus.read_sentences(p) for p in args.references]
    for i, refs in enumerate(ref_files):
        if len(refs) != len(hyps):
            raise CorpusAlignmentError(
                "reference file %s has %d lines, hypothesis has %d"
                % (args.references[i], len(refs), len(hyps))
            )
    reference_lists = [[refs[i] for refs in ref_files] for i in range(len(hyps))]
    stats = bleu.corpus_stats(hyps, reference_lists)
    print(bleu.format_report(stats, args.max_order))
    return 0


def _cmd_validate(args):
    cfg = pipeline.load_config(args.config)
    problems = pipeline.validate(cfg)
    for p in problems:
        print(p)
    if problems:
        print("%d violation(s)" % len(problems))
        return 1
    print("configuration is valid")
    return 0


def _cmd_pipeline(args):
    cfg = pipeline.load_config(args.config)
    if args.stage:
        manifest = pipeline.run_stage(args.stage, cfg)
        print("stage %s done (%s)" % (args.stage, manifest))
    else:
        for line in read_lines(pipeline.run_pipeline(cfg) / "bleu.txt"):
            print(line)
    return 0


def _cmd_make_toy_config(args):
    path = pipeline.make_toy_config(args.out_dir)
    print(path)
    return 0


def _add_search_flags(sub):
    sub.add_argument("--stack-size", type=int, default=_DEFAULTS.stack_size)
    sub.add_argument("--beam-threshold", type=pipeline.parse_threshold,
                     default=_DEFAULTS.beam_threshold, help="a number, or none")
    sub.add_argument("--distortion-limit", type=pipeline.parse_limit,
                     default=_DEFAULTS.distortion_limit, help="an integer, or none (unlimited)")


def _add_decoder_flags(sub):
    sub.add_argument("--table", required=True, help="phrase table file")
    sub.add_argument("--lm", required=True, help="ARPA language model file")
    sub.add_argument("--weights", help="weights file (default: uniform)")
    _add_search_flags(sub)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minismt",
        description="Miniature phrase-based statistical machine translation toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("tokenize", help="clitic-tokenize Arabic text (filter)")
    sub.add_argument("--scheme", default=_DEFAULTS.scheme, help="atb or myd3")
    sub.add_argument("--inventory", help="clitic inventory TSV (default: bundled)")
    sub.add_argument("--lexicon", help="stem lexicon (default: bundled)")
    sub.add_argument("--input", help="input file (default: stdin)")
    sub.set_defaults(fn=_cmd_tokenize)

    sub = commands.add_parser("detokenize", help="rejoin '+'-marked segments (filter)")
    sub.add_argument("--input", help="input file (default: stdin)")
    sub.set_defaults(fn=_cmd_detokenize)

    sub = commands.add_parser("stats", help="parallel corpus statistics")
    sub.add_argument("source")
    sub.add_argument("target")
    sub.set_defaults(fn=_cmd_stats)

    sub = commands.add_parser("train-lm", help="train a backoff n-gram model")
    sub.add_argument("corpus", help="tokenized corpus, one sentence per line")
    sub.add_argument("--order", type=int, default=_DEFAULTS.lm_order)
    sub.add_argument("-o", "--output", required=True)
    sub.set_defaults(fn=_cmd_train_lm)

    sub = commands.add_parser("query-lm", help="sentence log-probabilities and perplexity")
    sub.add_argument("model", help="ARPA file")
    sub.add_argument("--input", help="input file (default: stdin)")
    sub.set_defaults(fn=_cmd_query_lm)

    sub = commands.add_parser("align", help="IBM Model 1 word alignment")
    sub.add_argument("--source", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--iterations", type=int, default=_DEFAULTS.align_iterations)
    sub.add_argument("--heuristic", default=_DEFAULTS.align_heuristic, choices=align.HEURISTICS)
    sub.add_argument("-o", "--output", required=True,
                     help="alignment file; the lexicons go to <output>.lex.fwd / .lex.bwd")
    sub.set_defaults(fn=_cmd_align)

    sub = commands.add_parser("extract", help="extract and score a phrase table")
    sub.add_argument("--source", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--alignments", required=True)
    sub.add_argument("--lex-fwd", required=True)
    sub.add_argument("--lex-bwd", required=True)
    sub.add_argument("--max-len", type=int, default=_DEFAULTS.max_phrase_len)
    sub.add_argument("-o", "--output", required=True)
    sub.set_defaults(fn=_cmd_extract)

    sub = commands.add_parser("decode", help="translate, one sentence per line")
    _add_decoder_flags(sub)
    sub.add_argument("--input", help="input file (default: stdin)")
    sub.set_defaults(fn=_cmd_decode)

    sub = commands.add_parser("nbest", help="n-best lists in Moses format")
    _add_decoder_flags(sub)
    sub.add_argument("-n", type=int, default=10)
    sub.add_argument("--input", help="input file (default: stdin)")
    sub.set_defaults(fn=_cmd_nbest)

    sub = commands.add_parser("mert", help="tune log-linear weights on a dev set")
    sub.add_argument("--dev-source", required=True)
    sub.add_argument("--dev-target", required=True)
    sub.add_argument("--table", required=True)
    sub.add_argument("--lm", required=True)
    sub.add_argument("--iterations", type=int, default=_DEFAULTS.mert_iterations)
    sub.add_argument("--nbest", type=int, default=_DEFAULTS.mert_nbest)
    sub.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    _add_search_flags(sub)
    sub.add_argument("-o", "--output", required=True,
                     help="weights file; the per-iteration run log goes to <output>.log")
    sub.set_defaults(fn=_cmd_mert)

    sub = commands.add_parser("bleu", help="corpus BLEU of a hypothesis file")
    sub.add_argument("hypothesis")
    sub.add_argument("references", nargs="+")
    sub.add_argument("--max-order", type=int, default=bleu.MAX_ORDER)
    sub.set_defaults(fn=_cmd_bleu)

    sub = commands.add_parser("validate", help="check a pipeline config file")
    sub.add_argument("config")
    sub.set_defaults(fn=_cmd_validate)

    sub = commands.add_parser("pipeline", help="run the full pipeline (or one stage)")
    sub.add_argument("config")
    sub.add_argument("--stage", choices=pipeline.STAGES)
    sub.set_defaults(fn=_cmd_pipeline)

    sub = commands.add_parser("make-toy-config", help="set up the bundled toy corpus run")
    sub.add_argument("out_dir")
    sub.set_defaults(fn=_cmd_make_toy_config)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MinismtError, OSError) as exc:
        category = exc.category if isinstance(exc, MinismtError) else "io"
        print("ERROR %s: %s" % (category, str(exc).translate(_ONE_LINE)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
