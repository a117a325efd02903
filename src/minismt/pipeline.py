"""End-to-end pipeline: preprocess -> train -> tune -> decode -> evaluate.

Configuration is an INI-style key-value file; every key has a default
(see PipelineConfig). Each stage writes its artifacts plus a manifest
recording input hashes and parameters into the work directory, so a stage
can be rerun and checked for staleness in isolation. Runs are fully deterministic for
a fixed config and seed: artifacts are byte-identical across reruns.

The translation direction is English (source) to Arabic (target): the
Arabic side of every corpus is clitic-tokenized up front, the language
model and BLEU operate on tokenized Arabic, and decoder output is
detokenized only for the human-readable translation file.
"""

import configparser
import hashlib
import importlib.resources
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from . import align, artok, bleu, corpus, lm, mert, phrases
from .decode import Decoder, DecoderConfig, Weights
from .errors import ConfigError, MissingArtifactError

STAGES = ("prepare", "lm", "align", "phrases", "mert", "decode", "evaluate")

_BUNDLED = {
    "inventory": "clitics.bw.tsv",
    "lexicon": "stems.bw.txt",
}


def parse_number(text):
    """Float parser accepting either a dot or a comma decimal separator."""
    return float(text.strip().replace(",", "."))


def _unbounded(text):
    return text.strip().lower() in ("none", "unlimited", "inf")


def parse_threshold(text):
    """Beam threshold: a number, or none / unlimited / inf for no threshold."""
    return None if _unbounded(text) else parse_number(text)


def parse_limit(text):
    """Distortion limit: an integer, or none / unlimited / inf for unlimited reordering."""
    return None if _unbounded(text) else int(text)


@dataclass
class PipelineConfig:
    """Every pipeline setting with its default; the CLI reads its defaults here too."""

    train_source: str = ""
    train_target: str = ""
    dev_source: str = ""
    dev_target: str = ""
    test_source: str = ""
    test_target: str = ""
    scheme: str = "atb"
    inventory: str = ""  # empty -> bundled Buckwalter inventory
    lexicon: str = ""  # empty -> bundled stem lexicon
    clean_max_len: int = corpus.CLEAN_MAX_LEN
    clean_max_ratio: float = corpus.CLEAN_MAX_RATIO
    lm_order: int = 5
    lm_smoothing: str = "witten-bell"
    align_iterations: int = 5
    align_heuristic: str = "grow-diag-final"
    max_phrase_len: int = 7
    stack_size: int = DecoderConfig.stack_size
    beam_threshold: float | None = None
    distortion_limit: int | None = 6
    mert_iterations: int = mert.DEFAULT_ITERATIONS
    mert_nbest: int = mert.DEFAULT_NBEST
    seed: int = 17
    work_dir: str = ""

    def inventory_path(self):
        return Path(self.inventory) if self.inventory else bundled_data(_BUNDLED["inventory"])

    def lexicon_path(self):
        return Path(self.lexicon) if self.lexicon else bundled_data(_BUNDLED["lexicon"])


# (section, key) -> (PipelineConfig field, parser of the stripped value)
_KEYS = {
    ("data", "train_source"): ("train_source", str),
    ("data", "train_target"): ("train_target", str),
    ("data", "dev_source"): ("dev_source", str),
    ("data", "dev_target"): ("dev_target", str),
    ("data", "test_source"): ("test_source", str),
    ("data", "test_target"): ("test_target", str),
    ("tokenize", "scheme"): ("scheme", str.lower),
    ("tokenize", "inventory"): ("inventory", str),
    ("tokenize", "lexicon"): ("lexicon", str),
    ("clean", "max_len"): ("clean_max_len", int),
    ("clean", "max_ratio"): ("clean_max_ratio", parse_number),
    ("lm", "order"): ("lm_order", int),
    ("lm", "smoothing"): ("lm_smoothing", str.lower),
    ("align", "iterations"): ("align_iterations", int),
    ("align", "heuristic"): ("align_heuristic", str.lower),
    ("phrases", "max_len"): ("max_phrase_len", int),
    ("decoder", "stack_size"): ("stack_size", int),
    ("decoder", "beam_threshold"): ("beam_threshold", parse_threshold),
    ("decoder", "distortion_limit"): ("distortion_limit", parse_limit),
    ("mert", "iterations"): ("mert_iterations", int),
    ("mert", "nbest"): ("mert_nbest", int),
    ("run", "seed"): ("seed", int),
    ("run", "work_dir"): ("work_dir", str),
}


def bundled_data(name):
    return Path(str(importlib.resources.files("minismt.data") / name))


def load_config(path):
    """Parse an INI config file into a PipelineConfig (defaults applied)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError("cannot read config file %s" % path)

    raw = {(section, key): value.strip()
           for section in parser.sections() for key, value in parser[section].items()}
    for section, key in raw:
        if (section, key) not in _KEYS:
            raise ConfigError("unknown config key [%s] %s" % (section, key))
    try:
        values = {}
        for section_key, text in raw.items():
            field, parse = _KEYS[section_key]
            values[field] = parse(text)
    except ValueError as exc:
        raise ConfigError("bad value in %s: %s" % (path, exc))
    return PipelineConfig(**values)


def validate(cfg):
    """Every config violation, not just the first; empty list means valid."""
    problems = []
    for name in ("train_source", "train_target", "dev_source", "dev_target",
                 "test_source", "test_target"):
        value = getattr(cfg, name)
        if not value:
            problems.append("data.%s is required" % name)
        elif not Path(value).is_file():
            problems.append("data.%s: no such file %s" % (name, value))
    for name, path in (("tokenize.inventory", cfg.inventory), ("tokenize.lexicon", cfg.lexicon)):
        if path and not Path(path).is_file():
            problems.append("%s: no such file %s" % (name, path))
    if cfg.scheme not in ("atb", "myd3"):
        problems.append("tokenize.scheme must be atb or myd3, got %r" % cfg.scheme)
    if cfg.clean_max_len < 1:
        problems.append("clean.max_len must be >= 1")
    if cfg.clean_max_ratio < 1.0:
        problems.append("clean.max_ratio must be >= 1.0")
    if not 1 <= cfg.lm_order <= lm.MAX_ORDER:
        problems.append("lm.order must be in 1..%d, got %d" % (lm.MAX_ORDER, cfg.lm_order))
    if cfg.lm_smoothing not in ("witten-bell", "mle"):
        problems.append("lm.smoothing must be witten-bell or mle")
    if cfg.align_iterations < 1:
        problems.append("align.iterations must be >= 1")
    if cfg.align_heuristic not in align.HEURISTICS:
        problems.append("align.heuristic must be one of %s" % (", ".join(align.HEURISTICS)))
    if cfg.max_phrase_len < 1:
        problems.append("phrases.max_len must be >= 1")
    if cfg.stack_size < 1:
        problems.append("decoder.stack_size must be >= 1")
    if cfg.beam_threshold is not None and cfg.beam_threshold < 0:
        problems.append("decoder.beam_threshold must be >= 0 or none")
    if cfg.distortion_limit is not None and cfg.distortion_limit < 0:
        problems.append("decoder.distortion_limit must be >= 0 or none")
    if cfg.mert_iterations < 1:
        problems.append("mert.iterations must be >= 1")
    if cfg.mert_nbest < 1:
        problems.append("mert.nbest must be >= 1")
    if not cfg.work_dir:
        problems.append("run.work_dir is required")
    return problems


def _require_valid(cfg):
    problems = validate(cfg)
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))


# ---- artifacts and manifests ------------------------------------------


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(work, stage, params, inputs, outputs):
    manifest = {
        "stage": stage,
        "params": params,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
    }
    path = work / ("%s.manifest.json" % stage)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _artifacts(work):
    return {
        "train_src": work / "corpus.train.en",
        "train_tgt": work / "corpus.train.ar",
        "dev_src": work / "corpus.dev.en",
        "dev_tgt": work / "corpus.dev.ar",
        "test_src": work / "corpus.test.en",
        "test_tgt": work / "corpus.test.ar",
        "stats": work / "stats.txt",
        "lm": work / "lm.arpa",
        "alignments": work / "train.align",
        "lex_fwd": work / "lexicon.fwd",
        "lex_bwd": work / "lexicon.bwd",
        "table": work / "phrase-table.txt",
        "weights": work / "weights.txt",
        "weights_uniform": work / "weights.uniform.txt",
        "mert_log": work / "mert.log",
        "hyp": work / "test.hyp.ar",
        "hyp_uniform": work / "test.hyp.uniform.ar",
        "hyp_detok": work / "test.hyp.detok.ar",
        "report": work / "bleu.txt",
    }


def _need(paths, stage_hint):
    for p in paths:
        if not Path(p).is_file():
            raise MissingArtifactError(
                "missing artifact %s; run stage '%s' first" % (p, stage_hint)
            )


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(line + "\n")


def _read_tokenized(path):
    with open(path, encoding="utf-8") as f:
        return [tuple(line.split()) for line in f.read().splitlines()]


# ---- stages ------------------------------------------------------------


def _stage_prepare(cfg, work, art):
    scheme = artok.Scheme.parse(cfg.scheme)
    inventory = artok.CliticInventory.load(cfg.inventory_path())
    lexicon = artok.load_lexicon(cfg.lexicon_path())

    inputs = [cfg.train_source, cfg.train_target, cfg.dev_source, cfg.dev_target,
              cfg.test_source, cfg.test_target, cfg.inventory_path(), cfg.lexicon_path()]
    outputs = []
    for split, src_path, tgt_path, do_clean in (
        ("train", cfg.train_source, cfg.train_target, True),
        ("dev", cfg.dev_source, cfg.dev_target, False),
        ("test", cfg.test_source, cfg.test_target, False),
    ):
        corp = corpus.load_parallel(src_path, tgt_path, "en", "ar")
        pairs = tuple(
            corpus.SentencePair(p.source, artok.tokenize(p.target, scheme, inventory, lexicon), p.pair_id)
            for p in corp.pairs
        )
        corp = corpus.ParallelCorpus(pairs, "en", "ar")
        if do_clean:
            corp = corpus.clean(corp, cfg.clean_max_len, cfg.clean_max_ratio)
            _write_lines(art["stats"], corpus.format_stats_table(
                corpus.stats(corp), "en", "ar").splitlines())
            outputs.append(art["stats"])
        src_art = art["%s_src" % split]
        tgt_art = art["%s_tgt" % split]
        _write_lines(src_art, [" ".join(p.source) for p in corp.pairs])
        _write_lines(tgt_art, [" ".join(p.target) for p in corp.pairs])
        outputs.extend([src_art, tgt_art])

    params = {"scheme": cfg.scheme, "clean_max_len": cfg.clean_max_len,
              "clean_max_ratio": cfg.clean_max_ratio}
    return params, inputs, outputs


def _stage_lm(cfg, work, art):
    _need([art["train_tgt"]], "prepare")
    sentences = _read_tokenized(art["train_tgt"])
    model = lm.train(sentences, cfg.lm_order, cfg.lm_smoothing)
    lm.write_arpa(model, art["lm"])
    params = {"order": cfg.lm_order, "smoothing": cfg.lm_smoothing}
    return params, [art["train_tgt"]], [art["lm"]]


def _stage_align(cfg, work, art):
    _need([art["train_src"], art["train_tgt"]], "prepare")
    corp = corpus.load_parallel(art["train_src"], art["train_tgt"], "en", "ar")
    matrices, fwd, bwd = align.align_corpus(corp, cfg.align_iterations, cfg.align_heuristic)
    align.write_alignments(matrices, art["alignments"])
    align.write_lexicon(fwd, art["lex_fwd"])
    align.write_lexicon(bwd, art["lex_bwd"])
    params = {"iterations": cfg.align_iterations, "heuristic": cfg.align_heuristic}
    return params, [art["train_src"], art["train_tgt"]], [
        art["alignments"], art["lex_fwd"], art["lex_bwd"]]


def build_phrase_table(source, target, alignments, lex_fwd, lex_bwd, max_len):
    """Extract and score a phrase table from a corpus, its alignments and both lexicons."""
    corp = corpus.load_parallel(source, target)
    matrices = align.read_alignments(alignments, corp)
    lexicons = align.read_lexicon(lex_fwd), align.read_lexicon(lex_bwd)
    return phrases.score(phrases.extract_corpus(corp, matrices, max_len), *lexicons)


def _stage_phrases(cfg, work, art):
    inputs = [art["train_src"], art["train_tgt"], art["alignments"],
              art["lex_fwd"], art["lex_bwd"]]
    _need(inputs[:2], "prepare")
    _need(inputs[2:], "align")
    table = build_phrase_table(*inputs, cfg.max_phrase_len)
    phrases.write_table(table, art["table"])
    params = {"max_len": cfg.max_phrase_len}
    return params, inputs, [art["table"]]


def load_search(table_path, lm_path, stack_size, beam_threshold, distortion_limit):
    """Phrase table, language model and DecoderConfig: what a run's decoders share."""
    config = DecoderConfig(stack_size, beam_threshold, distortion_limit)
    return phrases.read_table(table_path), lm.read_arpa(lm_path), config


def _stage_mert(cfg, work, art):
    inputs = [art["dev_src"], art["dev_tgt"], art["table"], art["lm"]]
    _need(inputs[:2], "prepare")
    _need([art["table"]], "phrases")
    _need([art["lm"]], "lm")
    dev = corpus.load_parallel(art["dev_src"], art["dev_tgt"], "en", "ar")
    table, model, dconf = load_search(art["table"], art["lm"], cfg.stack_size,
                                      cfg.beam_threshold, cfg.distortion_limit)
    uniform = Weights.uniform()
    tuned, log_lines = mert.tune(dev, table, model, dconf, uniform, cfg.mert_iterations,
                                 cfg.mert_nbest, cfg.seed)
    tuned.to_file(art["weights"])
    uniform.to_file(art["weights_uniform"])
    _write_lines(art["mert_log"], log_lines)
    params = {"iterations": cfg.mert_iterations, "nbest": cfg.mert_nbest, "seed": cfg.seed,
              "stack_size": cfg.stack_size, "distortion_limit": cfg.distortion_limit}
    return params, inputs, [art["weights"], art["weights_uniform"], art["mert_log"]]


def _stage_decode(cfg, work, art):
    inputs = [art["test_src"], art["table"], art["lm"], art["weights"],
              art["weights_uniform"]]
    _need([art["test_src"]], "prepare")
    _need([art["table"]], "phrases")
    _need([art["lm"]], "lm")
    _need([art["weights"], art["weights_uniform"]], "mert")
    sentences = _read_tokenized(art["test_src"])
    table, model, dconf = load_search(art["table"], art["lm"], cfg.stack_size,
                                      cfg.beam_threshold, cfg.distortion_limit)
    for weights_path, out_path in (
        (art["weights"], art["hyp"]),
        (art["weights_uniform"], art["hyp_uniform"]),
    ):
        decoder = Decoder(table, model, Weights.from_file(weights_path), dconf)
        hyps = [decoder.decode(s).tokens for s in sentences]
        _write_lines(out_path, [" ".join(h) for h in hyps])
        if out_path == art["hyp"]:
            _write_lines(art["hyp_detok"], [" ".join(artok.detokenize(h)) for h in hyps])
    params = {"stack_size": cfg.stack_size, "beam_threshold": cfg.beam_threshold,
              "distortion_limit": cfg.distortion_limit}
    return params, inputs, [art["hyp"], art["hyp_uniform"], art["hyp_detok"]]


def _stage_evaluate(cfg, work, art):
    inputs = [art["hyp"], art["hyp_uniform"], art["test_tgt"]]
    _need([art["test_tgt"]], "prepare")
    _need([art["hyp"], art["hyp_uniform"]], "decode")
    refs = [[r] for r in _read_tokenized(art["test_tgt"])]
    lines = []
    for label, path in (("tuned", art["hyp"]), ("uniform", art["hyp_uniform"])):
        stats = bleu.corpus_stats(_read_tokenized(path), refs)
        lines.append("%s: %s" % (label, bleu.format_report(stats)))
    _write_lines(art["report"], lines)
    return {}, inputs, [art["report"]]


_STAGE_FN = {
    "prepare": _stage_prepare,
    "lm": _stage_lm,
    "align": _stage_align,
    "phrases": _stage_phrases,
    "mert": _stage_mert,
    "decode": _stage_decode,
    "evaluate": _stage_evaluate,
}


def run_stage(name, cfg):
    """Run one pipeline stage; returns the manifest path."""
    if name not in _STAGE_FN:
        raise ConfigError("unknown stage %r (expected one of %s)" % (name, ", ".join(STAGES)))
    _require_valid(cfg)
    work = Path(cfg.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    art = _artifacts(work)
    params, inputs, outputs = _STAGE_FN[name](cfg, work, art)
    return _write_manifest(work, name, params, inputs, outputs)


def run_pipeline(cfg):
    """Run every stage in order; returns the work directory path."""
    for name in STAGES:
        run_stage(name, cfg)
    return Path(cfg.work_dir)


def make_toy_config(out_dir):
    """Copy the bundled toy corpus into out_dir/data and write a ready config."""
    out = Path(out_dir)
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    names = ["toy.%s.%s" % (split, side) for split in ("train", "dev", "test")
             for side in ("en", "ar")]
    for name in names:
        shutil.copy(bundled_data(name), data_dir / name)
    config_path = out / "toy.ini"
    lines = [
        "[data]",
        "train_source = %s" % (data_dir / "toy.train.en"),
        "train_target = %s" % (data_dir / "toy.train.ar"),
        "dev_source = %s" % (data_dir / "toy.dev.en"),
        "dev_target = %s" % (data_dir / "toy.dev.ar"),
        "test_source = %s" % (data_dir / "toy.test.en"),
        "test_target = %s" % (data_dir / "toy.test.ar"),
        "",
        "[tokenize]",
        "scheme = myd3",
        "",
        "[run]",
        "work_dir = %s" % (out / "work"),
        "",
    ]
    config_path.write_text("\n".join(lines), encoding="utf-8")
    return config_path
