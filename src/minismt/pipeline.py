"""End-to-end pipeline: preprocess -> train -> tune -> decode -> evaluate.

Configuration is an INI-style key-value file. Each setting is declared
once, as a PipelineConfig field that carries its `[section] key`, the
parser of its value, its default and the range check of the module that
reads it; load_config reads the key table from those fields, and validate
runs their checks. The stage graph is one table (_GRAPH): for each stage,
the work-dir files it reads and writes and its manifest params.
A stage function is given its paths and those params and nothing else, and
the stage subcommands run the same functions with a flag per param (PARAMS).
Each stage writes its artifacts plus a manifest (sha256 of inputs and
outputs, and its params) into the work directory, so a stage can be rerun
in isolation. Before a stage runs, every file it reads is checked against
the manifest of the stage that wrote it, and that stage's inputs in turn up
to prepare's corpus files; a missing, changed or differently-configured
artifact, or one built on such, is refused, naming the stage to rerun.
Runs are fully deterministic for a fixed config and seed: artifacts are
byte-identical across reruns.

The translation direction is English (source) to Arabic (target): the
Arabic side of every corpus is clitic-tokenized up front, the language
model and BLEU operate on tokenized Arabic, and decoder output is
detokenized only for the human-readable translation file.
"""

import configparser
import functools
import hashlib
import importlib.resources
import json
import shutil
from collections import namedtuple
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import align, artok, bleu, corpus, decode, lm, mert, phrases
from .decode import Decoder, DecoderConfig, Weights, translate_all
from .errors import ConfigError, MissingArtifactError, ParameterError, read_lines, write_lines


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


def _setting(section, key, default, parse=str, check=None):
    """A PipelineConfig field set by `[section] key`, whose stripped value `parse` reads
    and, unless None (unlimited), the reading module's `check` accepts."""
    return field(default=default, metadata={"key": (section, key), "parse": parse, "check": check})


@dataclass
class PipelineConfig:
    """Every pipeline setting with its default; the CLI's setting flags are these fields."""

    train_source: str = _setting("data", "train_source", "")
    train_target: str = _setting("data", "train_target", "")
    dev_source: str = _setting("data", "dev_source", "")
    dev_target: str = _setting("data", "dev_target", "")
    test_source: str = _setting("data", "test_source", "")
    test_target: str = _setting("data", "test_target", "")
    scheme: str = _setting("tokenize", "scheme", "atb", str.lower, artok.Scheme.parse)
    inventory: str = _setting("tokenize", "inventory", "")  # empty -> bundled Buckwalter inventory
    lexicon: str = _setting("tokenize", "lexicon", "")  # empty -> bundled stem lexicon
    clean_max_len: int = _setting("clean", "max_len", 80, int, corpus.check_max_len)
    clean_max_ratio: float = _setting("clean", "max_ratio", 9.0, parse_number,
                                      corpus.check_max_ratio)
    lm_order: int = _setting("lm", "order", 5, int, lm.check_order)
    align_iterations: int = _setting("align", "iterations", 5, int, align.check_iterations)
    align_heuristic: str = _setting("align", "heuristic", "grow-diag-final", str.lower,
                                    align.check_heuristic)
    max_phrase_len: int = _setting("phrases", "max_len", 7, int, phrases.check_max_len)
    stack_size: int = _setting("decoder", "stack_size", 10, int, decode.check_stack_size)
    beam_threshold: float | None = _setting("decoder", "beam_threshold", None, parse_threshold,
                                            decode.check_beam_threshold)
    distortion_limit: int | None = _setting("decoder", "distortion_limit", 6, parse_limit,
                                            decode.check_distortion_limit)
    mert_iterations: int = _setting("mert", "iterations", 10, int, mert.check_iterations)
    mert_nbest: int = _setting("mert", "nbest", 100, int, decode.check_nbest_size)
    seed: int = _setting("run", "seed", 17, int)
    work_dir: str = _setting("run", "work_dir", "")

    def inventory_path(self):
        return Path(self.inventory) if self.inventory else bundled_data("clitics.bw.tsv")

    def lexicon_path(self):
        return Path(self.lexicon) if self.lexicon else bundled_data("stems.bw.txt")


FIELDS = {f.name: f for f in fields(PipelineConfig)}
_SETTINGS = {f.metadata["key"]: f for f in FIELDS.values()}  # (section, key) -> field


def bundled_data(name):
    return Path(str(importlib.resources.files("minismt.data") / name))


def load_config(path):
    """Parse an INI config file into a PipelineConfig (defaults applied)."""
    parser = configparser.ConfigParser(interpolation=None)  # values are read literally
    try:
        parser.read_file(read_lines(path), source=str(path))
        # [DEFAULT] comes first: no setting lives there, and its keys reach every section
        raw = {(section, key): value.strip()
               for section in (parser.default_section, *parser.sections())
               for key, value in parser[section].items()}
    except OSError:
        raise ConfigError("cannot read config file %s" % path)
    except configparser.Error as exc:  # its messages span lines; the CLI prints one
        raise ConfigError(" ".join(str(exc).split()))
    for section, key in raw:
        if (section, key) not in _SETTINGS:
            raise ConfigError("unknown config key [%s] %s" % (section, key))
    values = {}
    for (section, key), text in raw.items():
        setting = _SETTINGS[section, key]
        try:
            values[setting.name] = setting.metadata["parse"](text)
        except ValueError as exc:
            raise ConfigError("bad value for [%s] %s in %s: %s" % (section, key, path, exc))
    return PipelineConfig(**values)


def validate(cfg):
    """Every config violation, not just the first; empty list means valid. A setting
    out of range gets `section.key: ` and its check's refusal, as its stage words it."""
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
    for setting in FIELDS.values():
        value, check = getattr(cfg, setting.name), setting.metadata["check"]
        if check and value is not None:
            try:
                check(value)
            except ParameterError as exc:
                problems.append("%s.%s: %s" % (*setting.metadata["key"], exc))
    if not cfg.work_dir:
        problems.append("run.work_dir is required")
    return problems


def _require_valid(cfg):
    problems = validate(cfg)
    if problems:
        raise ConfigError("invalid configuration: " + "; ".join(problems))


# ---- stages ------------------------------------------------------------


def _prepare_inputs(cfg):
    """The files outside the work dir that prepare reads."""
    return [cfg.train_source, cfg.train_target, cfg.dev_source, cfg.dev_target,
            cfg.test_source, cfg.test_target, cfg.inventory_path(), cfg.lexicon_path()]


def stage_prepare(train_source, train_target, dev_source, dev_target, test_source, test_target,
                  inventory, lexicon, train_src, train_tgt, dev_src, dev_tgt, test_src, test_tgt,
                  stats, *, scheme, clean_max_len, clean_max_ratio):
    """Tokenize and clean the corpora."""
    scheme = artok.Scheme.parse(scheme)
    inventory = artok.CliticInventory.load(inventory)
    lexicon = artok.load_lexicon(lexicon)
    splits = ((train_source, train_target, train_src, train_tgt),
              (dev_source, dev_target, dev_src, dev_tgt),
              (test_source, test_target, test_src, test_tgt))
    for source, target, src_art, tgt_art in splits:
        corp = corpus.load_parallel(source, target)
        targets = artok.tokenize_all((p.target for p in corp.pairs), scheme, inventory, lexicon)
        corp = corpus.ParallelCorpus(tuple(
            corpus.SentencePair(p.source, t) for p, t in zip(corp.pairs, targets)))
        if src_art == train_src:
            corp = corpus.clean(corp, clean_max_len, clean_max_ratio)
            write_lines(stats, corpus.format_stats_table(corpus.stats(corp), "en", "ar"))
        write_lines(src_art, (" ".join(p.source) for p in corp.pairs))
        write_lines(tgt_art, (" ".join(p.target) for p in corp.pairs))


def stage_lm(train_tgt, lm_out, *, order):
    model = lm.train(corpus.read_sentences(train_tgt), order)
    lm.write_arpa(model, lm_out)


def stage_align(train_src, train_tgt, alignments, lex_fwd, lex_bwd, *, iterations, heuristic):
    """Align the corpus both ways; returns the number of sentence pairs."""
    corp = corpus.load_parallel(train_src, train_tgt)
    matrices, fwd, bwd = align.align_corpus(corp, iterations, heuristic)
    align.write_alignments(matrices, alignments)
    align.write_lexicon(fwd, lex_fwd)
    align.write_lexicon(bwd, lex_bwd)
    return len(corp.pairs)


def stage_phrases(train_src, train_tgt, alignments, lex_fwd, lex_bwd, table, *, max_len):
    """Extract and score the phrase table; returns the number of entries written.

    Each pair's phrase pairs are extracted as score reads them and dropped
    once counted, so only the counts outlive their pair.
    """
    phrases.check_max_len(max_len)
    corp = corpus.load_parallel(train_src, train_tgt)
    matrices = align.read_alignments(alignments, corp)
    lexicons = align.read_lexicon(lex_fwd), align.read_lexicon(lex_bwd)
    extracted = (phrases.extract(pair, matrix, max_len)
                 for pair, matrix in zip(corp.pairs, matrices))
    return phrases.write_table(phrases.score(extracted, *lexicons), table)


def load_search(table_path, lm_path, **search):
    """`decoder(weights)`: a Decoder over one phrase table, language model and
    DecoderConfig(**search), which every decoder it gives shares."""
    config = DecoderConfig(**search)
    table, model = phrases.read_table(table_path), lm.read_arpa(lm_path)
    return lambda weights: Decoder(table, model, weights, config)


def stage_mert(dev_src, dev_tgt, table_path, lm_path, weights, log, *, iterations, nbest, seed,
               **search):
    """Tune the weights from uniform on the dev set; write them and the run log."""
    dev = corpus.load_parallel(dev_src, dev_tgt)
    decoder = load_search(table_path, lm_path, **search)
    log_lines = []
    tuned = mert.mert(dev, decoder, Weights.uniform(), iterations, nbest, seed=seed,
                      log_lines=log_lines)
    tuned.to_file(weights)
    write_lines(log, log_lines)


def stage_decode(test_src, table_path, lm_path, weights, hyp, hyp_uniform, hyp_detok, **search):
    """Decode the test set with the tuned weights and with the uniform start MERT tuned from."""
    sentences = corpus.read_sentences(test_src)
    decoder = load_search(table_path, lm_path, **search)
    for w, out_path in ((Weights.from_file(weights), hyp), (Weights.uniform(), hyp_uniform)):
        hyps = [nbest[0].tokens for nbest in translate_all(decoder(w), sentences, 1)]
        write_lines(out_path, (" ".join(h) for h in hyps))
        if out_path == hyp:
            write_lines(hyp_detok, (" ".join(artok.detokenize(h)) for h in hyps))


def stage_evaluate(test_tgt, hyp, hyp_uniform, report):
    write_lines(report, ("%s: %s" % (label, bleu.file_report(path, [test_tgt]))
                         for label, path in (("tuned", hyp), ("uniform", hyp_uniform))))


# ---- the stage graph ---------------------------------------------------

_Stage = namedtuple("_Stage", "name run reads writes params external", defaults=(lambda cfg: (),))
SEARCH_PARAMS = {"stack_size": "stack_size", "beam_threshold": "beam_threshold",
                 "distortion_limit": "distortion_limit"}

# One row per stage, in run order: the work-dir files it reads, the files it
# writes, its manifest params as {param: PipelineConfig field}, and a function
# of the config giving the files it reads from outside the work dir. A stage
# function takes those outside paths, then the read paths, then the write
# paths, then its params as keywords, and never sees the config: the params
# row is all it is given, so the manifest records everything it depends on.
# The subcommands call the same functions, a flag per param.
_GRAPH = (
    _Stage("prepare", stage_prepare, (),
           ("corpus.train.en", "corpus.train.ar", "corpus.dev.en", "corpus.dev.ar",
            "corpus.test.en", "corpus.test.ar", "stats.txt"),
           {"scheme": "scheme", "clean_max_len": "clean_max_len",
            "clean_max_ratio": "clean_max_ratio"}, _prepare_inputs),
    _Stage("lm", stage_lm, ("corpus.train.ar",), ("lm.arpa",),
           {"order": "lm_order"}),
    _Stage("align", stage_align, ("corpus.train.en", "corpus.train.ar"),
           ("train.align", "lexicon.fwd", "lexicon.bwd"),
           {"iterations": "align_iterations", "heuristic": "align_heuristic"}),
    _Stage("phrases", stage_phrases,
           ("corpus.train.en", "corpus.train.ar", "train.align", "lexicon.fwd", "lexicon.bwd"),
           ("phrase-table.txt",), {"max_len": "max_phrase_len"}),
    _Stage("mert", stage_mert, ("corpus.dev.en", "corpus.dev.ar", "phrase-table.txt", "lm.arpa"),
           ("weights.txt", "mert.log"),
           {"iterations": "mert_iterations", "nbest": "mert_nbest", "seed": "seed",
            **SEARCH_PARAMS}),
    _Stage("decode", stage_decode,
           ("corpus.test.en", "phrase-table.txt", "lm.arpa", "weights.txt"),
           ("test.hyp.ar", "test.hyp.uniform.ar", "test.hyp.detok.ar"), SEARCH_PARAMS),
    _Stage("evaluate", stage_evaluate, ("corpus.test.ar", "test.hyp.ar", "test.hyp.uniform.ar"),
           ("bleu.txt",), {}),
)
STAGES = tuple(stage.name for stage in _GRAPH)
PARAMS = {stage.name: stage.params for stage in _GRAPH}  # {param: field name} by stage
_BY_NAME = {stage.name: stage for stage in _GRAPH}
_WRITER = {name: stage for stage in _GRAPH for name in stage.writes}


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _params(cfg, stage):
    return {param: getattr(cfg, name) for param, name in stage.params.items()}


def _manifest_path(work, stage):
    return work / ("%s.manifest.json" % stage.name)


def _freshness(cfg, work):
    """`stale(name)`, which judges a work-dir file, and the cached `digest` it hashes with.

    stale gives (stage to rerun, reason), or None when the writer's manifest
    records the current params, each recorded input is fresh in turn and
    hashes as recorded (up to prepare's corpus, inventory and lexicon), and
    the file hashes as written. Files match by name, so a moved run works.
    """
    digest = functools.cache(_sha256)

    @functools.cache
    def stale(name):
        writer = _WRITER[name]
        if not (work / name).is_file():
            return writer, "%s is missing" % name
        try:
            manifest = json.loads(_manifest_path(work, writer).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return writer, "%s left no readable manifest" % writer.name
        recorded = manifest.get("params", {})
        changed = [k for k, v in sorted(_params(cfg, writer).items())
                   if k not in recorded or recorded[k] != v]
        if changed:
            return writer, "%s ran with other %s" % (writer.name, ", ".join(changed))
        upstream = next(filter(None, map(stale, writer.reads)), None)
        if upstream:
            return upstream
        read = {(Path(p).name, h) for p, h in manifest.get("inputs", {}).items()}
        for path in [work / r for r in writer.reads] + list(writer.external(cfg)):
            if not Path(path).is_file() or (Path(path).name, digest(path)) not in read:
                return writer, "%s changed since %s read it" % (Path(path).name, writer.name)
        written = {Path(p).name: h for p, h in manifest.get("outputs", {}).items()}
        if written.get(name) != digest(work / name):
            return writer, "%s changed since %s wrote it" % (name, writer.name)
        return None

    return stale, digest


def run_stage(name, cfg):
    """Run one pipeline stage; returns the manifest path."""
    if name not in _BY_NAME:
        raise ConfigError("unknown stage %r (expected one of %s)" % (name, ", ".join(STAGES)))
    stage = _BY_NAME[name]
    _require_valid(cfg)
    work = Path(cfg.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    reads = [work / f for f in stage.reads]
    writes = [work / f for f in stage.writes]
    for path in reads:
        if not path.is_file():
            raise MissingArtifactError(
                "missing artifact %s; run stage '%s' first" % (path, _WRITER[path.name].name))
    stale, digest = _freshness(cfg, work)
    for path in reads:
        verdict = stale(path.name)
        if verdict:
            raise MissingArtifactError("stale artifact %s (%s); rerun stage '%s'"
                                       % (path, verdict[1], verdict[0].name))
    external, params = list(stage.external(cfg)), _params(cfg, stage)
    inputs = {str(p): digest(p) for p in reads + external}
    stage.run(*external, *reads, *writes, **params)
    manifest = {"stage": name, "params": params, "inputs": inputs,
                "outputs": {str(p): _sha256(p) for p in writes}}
    path = _manifest_path(work, stage)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run_pipeline(cfg):
    """Run every stage in order; returns the work directory path."""
    for name in STAGES:
        run_stage(name, cfg)
    return Path(cfg.work_dir)


def make_toy_config(out_dir):
    """Copy the bundled toy corpus into out_dir/data and write a ready config,
    whose paths are absolute, so it runs from any directory."""
    out = Path(out_dir).resolve()
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    lines = ["[data]"]
    for split in ("train", "dev", "test"):
        for role, side in (("source", "en"), ("target", "ar")):
            name = "toy.%s.%s" % (split, side)
            shutil.copy(bundled_data(name), data_dir / name)
            lines.append("%s_%s = %s" % (split, role, data_dir / name))
    config_path = out / "toy.ini"
    write_lines(config_path, lines + ["", "[tokenize]", "scheme = myd3", "",
                                      "[run]", "work_dir = %s" % (out / "work")])
    return config_path
