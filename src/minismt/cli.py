"""Command-line interface: one subcommand per pipeline operation.

Filter-style commands (tokenize, detokenize, query-lm, decode, nbest) read
one sentence per line from stdin or a file and write to stdout. Failures
exit nonzero after printing a single machine-parsable line of the form
``ERROR <category>: <message>`` to stderr.

A stage subcommand runs the pipeline's stage function with a --flag per
param of its stage, which that param's PipelineConfig field parses and defaults.
"""

import argparse
import sys
from pathlib import Path

from . import artok, bleu, corpus, lm, pipeline
from .decode import Weights, translate_all
from .errors import MinismtError, TrainingError, read_lines

_TOKENIZE_PARAMS = {"scheme": "scheme", "inventory": "inventory", "lexicon": "lexicon"}
# every character at which str.splitlines ends a line, escaped as repr() writes
# it, so that a message quoting a path or a field stays on its one ERROR line
_ONE_LINE = str.maketrans({c: ascii(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _settings(args):
    """The setting flags' values, as the keywords of the subcommand's stage function."""
    return {param: getattr(args, param) for param in args.params}


def _cmd_tokenize(args):
    cfg = pipeline.PipelineConfig(**_settings(args))  # for its bundled-file defaults
    inventory = artok.CliticInventory.load(cfg.inventory_path())
    lexicon = artok.load_lexicon(cfg.lexicon_path())
    scheme = artok.Scheme.parse(cfg.scheme)
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
    pipeline.stage_lm(args.corpus, args.output, **_settings(args))
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
                                 **_settings(args))
    print("wrote %s (%d pairs)" % (args.output, pairs))
    return 0


def _cmd_extract(args):
    entries = pipeline.stage_phrases(args.source, args.target, args.alignments, args.lex_fwd,
                                     args.lex_bwd, args.output, **_settings(args))
    print("wrote %s (%d entries)" % (args.output, entries))
    return 0


def _decoder_from_args(args):
    decoder = pipeline.load_search(args.table, args.lm, **_settings(args))
    return decoder(Weights.from_file(args.weights) if args.weights else Weights.uniform())


def _cmd_decode(args):
    decoder = _decoder_from_args(args)
    for nbest in translate_all(decoder, corpus.read_sentences(args.input), 1):
        print(" ".join(nbest[0].tokens))
    return 0


def _cmd_nbest(args):
    decoder = _decoder_from_args(args)
    sentences = corpus.read_sentences(args.input)
    for lineno, sentence in enumerate(sentences, 1):
        if "|||" in sentence:  # an unknown word is copied into the output
            raise TrainingError("input line %d holds the token |||, the n-best format's field "
                                "separator" % lineno)
    for idx, nbest in enumerate(translate_all(decoder, sentences, args.n)):
        for t in nbest:
            print(
                "%d ||| %s ||| %s ||| %.6f"
                % (idx, " ".join(t.tokens), " ".join("%.6f" % f for f in t.features), t.score)
            )
    return 0


def _cmd_mert(args):
    pipeline.stage_mert(args.dev_source, args.dev_target, args.table, args.lm, args.output,
                        args.output + ".log", **_settings(args))
    print("wrote %s" % args.output)
    return 0


def _cmd_bleu(args):
    print(bleu.file_report(args.hypothesis, args.references, args.max_order))
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


def _add_setting_flags(sub, params):
    """A --param flag for each {param: PipelineConfig field name} item, which
    the field parses and defaults as a config file's [section] key does."""
    for param, name in params.items():
        setting = pipeline.FIELDS[name]
        sub.add_argument("--" + param.replace("_", "-"), type=setting.metadata["parse"],
                         default=setting.default,
                         help="as [%s] %s in a pipeline config" % setting.metadata["key"])
    sub.set_defaults(params=params)


def _add_decoder_flags(sub):
    sub.add_argument("--table", required=True, help="phrase table file")
    sub.add_argument("--lm", required=True, help="ARPA language model file")
    sub.add_argument("--weights", help="weights file (default: uniform)")
    _add_setting_flags(sub, pipeline.SEARCH_PARAMS)
    sub.add_argument("--input", help="input file (default: stdin)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minismt",
        description="Miniature phrase-based statistical machine translation toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        sub = commands.add_parser(name, help=help)
        sub.set_defaults(fn=fn)
        return sub

    sub = command("tokenize", _cmd_tokenize, "clitic-tokenize Arabic text (filter)")
    _add_setting_flags(sub, _TOKENIZE_PARAMS)
    sub.add_argument("--input", help="input file (default: stdin)")

    sub = command("detokenize", _cmd_detokenize, "rejoin '+'-marked segments (filter)")
    sub.add_argument("--input", help="input file (default: stdin)")

    sub = command("stats", _cmd_stats, "parallel corpus statistics")
    sub.add_argument("source")
    sub.add_argument("target")

    sub = command("train-lm", _cmd_train_lm, "train a backoff n-gram model")
    sub.add_argument("corpus", help="tokenized corpus, one sentence per line")
    _add_setting_flags(sub, pipeline.PARAMS["lm"])
    sub.add_argument("-o", "--output", required=True)

    sub = command("query-lm", _cmd_query_lm, "sentence log-probabilities and perplexity")
    sub.add_argument("model", help="ARPA file")
    sub.add_argument("--input", help="input file (default: stdin)")

    sub = command("align", _cmd_align, "IBM Model 1 word alignment")
    sub.add_argument("--source", required=True)
    sub.add_argument("--target", required=True)
    _add_setting_flags(sub, pipeline.PARAMS["align"])
    sub.add_argument("-o", "--output", required=True,
                     help="alignment file; the lexicons go to <output>.lex.fwd / .lex.bwd")

    sub = command("extract", _cmd_extract, "extract and score a phrase table")
    sub.add_argument("--source", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--alignments", required=True)
    sub.add_argument("--lex-fwd", required=True)
    sub.add_argument("--lex-bwd", required=True)
    _add_setting_flags(sub, pipeline.PARAMS["phrases"])
    sub.add_argument("-o", "--output", required=True)

    sub = command("decode", _cmd_decode, "translate, one sentence per line")
    _add_decoder_flags(sub)

    sub = command("nbest", _cmd_nbest, "n-best lists in Moses format")
    _add_decoder_flags(sub)
    sub.add_argument("-n", type=int, default=10)

    sub = command("mert", _cmd_mert, "tune log-linear weights on a dev set")
    sub.add_argument("--dev-source", required=True)
    sub.add_argument("--dev-target", required=True)
    sub.add_argument("--table", required=True)
    sub.add_argument("--lm", required=True)
    _add_setting_flags(sub, pipeline.PARAMS["mert"])
    sub.add_argument("-o", "--output", required=True,
                     help="weights file; the per-iteration run log goes to <output>.log")

    sub = command("bleu", _cmd_bleu, "corpus BLEU of a hypothesis file")
    sub.add_argument("hypothesis")
    sub.add_argument("references", nargs="+")
    sub.add_argument("--max-order", type=int, default=bleu.MAX_ORDER)

    sub = command("validate", _cmd_validate, "check a pipeline config file")
    sub.add_argument("config")

    sub = command("pipeline", _cmd_pipeline, "run the full pipeline (or one stage)")
    sub.add_argument("config")
    sub.add_argument("--stage", choices=pipeline.STAGES)

    sub = command("make-toy-config", _cmd_make_toy_config, "set up the bundled toy corpus run")
    sub.add_argument("out_dir")

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
