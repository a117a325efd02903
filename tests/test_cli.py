import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import minismt
from minismt import align, artok, corpus, lm, mert, parallel, phrases, pipeline
from minismt.cli import build_parser, main
from minismt.decode import FEATURE_NAMES, DecoderConfig, Weights
from minismt.errors import CorpusAlignmentError, MissingArtifactError, ParameterError


@pytest.fixture()
def small_toy(tmp_path):
    """Bundled toy corpus cut down for fast CLI runs."""
    return _small_toy_config(tmp_path / "run")


def _small_toy_config(out):
    config_path = pipeline.make_toy_config(out)
    sizes = {"train": 120, "dev": 16, "test": 16}
    for split, n in sizes.items():
        for side in ("en", "ar"):
            p = out / "data" / ("toy.%s.%s" % (split, side))
            p.write_text(
                "\n".join(p.read_text(encoding="utf-8").splitlines()[:n]) + "\n",
                encoding="utf-8",
            )
    text = config_path.read_text(encoding="utf-8")
    text += "\n[mert]\niterations = 2\n"
    config_path.write_text(text, encoding="utf-8")
    return config_path


def test_tokenize_detokenize_filters(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("wAlktAb Aljdyd\nktAbhA .\n", encoding="utf-8")
    assert main(["tokenize", "--scheme", "myd3", "--input", str(src)]) == 0
    tokenized = capsys.readouterr().out
    assert tokenized == "w+ Al+ ktAb Al+ jdyd\nktAb +hA .\n"

    tok_file = tmp_path / "tok.txt"
    tok_file.write_text(tokenized, encoding="utf-8")
    assert main(["detokenize", "--input", str(tok_file)]) == 0
    assert capsys.readouterr().out == "wAlktAb Aljdyd\nktAbhA .\n"


def test_tokenize_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("wAlktAb\n"))
    assert main(["tokenize", "--scheme", "atb"]) == 0
    assert capsys.readouterr().out == "w+ AlktAb\n"


def test_a_line_ends_at_newline_only(tmp_path, capsys):
    # a form feed, U+2028, U+0085 and a carriage return inside the lines
    text = "wAlktAb\fAljdyd\nktAbhA\u2028.\r\x85wktAb\n"
    source, target = tmp_path / "c.en", tmp_path / "c.ar"
    source.write_text(text, encoding="utf-8")
    target.write_text("x\ny\n", encoding="utf-8")
    assert main(["stats", str(source), str(target)]) == 0
    out = capsys.readouterr().out.split("\n")
    assert "source_lines=2" in out and "target_lines=2" in out
    command = [sys.executable, "-m", "minismt.cli", "tokenize", "--scheme", "myd3"]
    from_file = subprocess.run(command + ["--input", str(source)], env=_child_env(),
                               capture_output=True, timeout=60)
    from_stdin = subprocess.run(command, input=text.encode("utf-8"), env=_child_env(),
                                capture_output=True, timeout=60)
    assert from_file.returncode == from_stdin.returncode == 0, (from_file, from_stdin)
    want = b"w+ Al+ ktAb Al+ jdyd\nktAb +hA . w+ ktAb\n"
    assert from_file.stdout == from_stdin.stdout == want


def test_tokenize_unknown_scheme_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("wAlktAb\n"))
    assert main(["tokenize", "--scheme", "foo"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "ERROR usage: unknown tokenization scheme 'foo' (expected atb or myd3)"]


def test_full_pipeline_with_atb_scheme(small_toy, capsys):
    text = small_toy.read_text(encoding="utf-8").replace("scheme = myd3", "scheme = atb")
    small_toy.write_text(text, encoding="utf-8")
    assert main(["pipeline", str(small_toy)]) == 0
    assert "tuned: BLEU" in capsys.readouterr().out
    cfg = pipeline.load_config(small_toy)
    tokenized = (Path(cfg.work_dir) / "corpus.train.ar").read_text(encoding="utf-8")
    assert "w+ " in tokenized
    assert "Al+ " not in tokenized  # ATB never splits the article
    hyp = (Path(cfg.work_dir) / "test.hyp.detok.ar").read_text(encoding="utf-8")
    assert "+" not in hyp


def test_stats_command(tmp_path, capsys):
    (tmp_path / "a.en").write_text("a b\nc\n", encoding="utf-8")
    (tmp_path / "a.ar").write_text("x\ny z\n", encoding="utf-8")
    assert main(["stats", str(tmp_path / "a.en"), str(tmp_path / "a.ar")]) == 0
    out = capsys.readouterr().out
    assert "source_tokens=3" in out and "target_lines=2" in out


def test_stats_labels_come_from_file_names(tmp_path, capsys):
    # a dotted directory is not a suffix: suffix-less files are src and tgt
    run = tmp_path / "run.d"
    run.mkdir()
    (run / "train").write_text("a b\nc\n", encoding="utf-8")
    (run / "test").write_text("x\ny z\n", encoding="utf-8")
    assert main(["stats", str(run / "train"), str(run / "test")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[1:3]] == ["src", "tgt"]


def test_bleu_line_count_mismatch_is_a_data_error(tmp_path, capsys):
    (tmp_path / "hyp").write_text("a b\nc\n", encoding="utf-8")
    (tmp_path / "ref").write_text("a b\n", encoding="utf-8")
    assert main(["bleu", str(tmp_path / "hyp"), str(tmp_path / "ref")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "ERROR data: reference file %s has 1 lines, hypothesis has 2" % (tmp_path / "ref")]


def test_evaluate_line_count_mismatch_is_the_bleu_data_error(tmp_path):
    (tmp_path / "hyp").write_text("a b\n", encoding="utf-8")
    (tmp_path / "ref").write_text("a b\nc\n", encoding="utf-8")
    with pytest.raises(CorpusAlignmentError) as exc:
        pipeline.stage_evaluate(tmp_path / "ref", tmp_path / "hyp", tmp_path / "hyp",
                                tmp_path / "bleu.txt")
    assert str(exc.value) == "reference file %s has 2 lines, hypothesis has 1" % (tmp_path / "ref")


def test_bleu_prints_the_precisions_of_max_order(tmp_path, capsys):
    (tmp_path / "h").write_text("a b\nc\n", encoding="utf-8")
    assert main(["bleu", str(tmp_path / "h"), str(tmp_path / "h"), "--max-order", "1"]) == 0
    assert capsys.readouterr().out == (
        "BLEU = 100.00, 100.0 (BP=1.000, ratio=1.000, hyp_len=3, ref_len=3)\n")


@pytest.mark.parametrize("max_order", ["0", "5"])
def test_bleu_refuses_a_max_order_out_of_range(tmp_path, capsys, max_order):
    (tmp_path / "h").write_text("a b\n", encoding="utf-8")
    assert main(["bleu", str(tmp_path / "h"), str(tmp_path / "h"), "--max-order", max_order]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["ERROR usage: max_order must be in 1..4, got " + max_order]


def test_stats_mismatch_error_line(tmp_path, capsys):
    (tmp_path / "a.en").write_text("a\nb\n", encoding="utf-8")
    (tmp_path / "a.ar").write_text("x\n", encoding="utf-8")
    assert main(["stats", str(tmp_path / "a.en"), str(tmp_path / "a.ar")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR data:")


def test_train_and_query_lm(tmp_path, capsys):
    corpus_file = tmp_path / "c.txt"
    corpus_file.write_text("a b c\nb c a\na a b\n", encoding="utf-8")
    model_file = tmp_path / "m.arpa"
    assert main(["train-lm", str(corpus_file), "--order", "2", "-o", str(model_file)]) == 0
    capsys.readouterr()
    assert main(["query-lm", str(model_file), "--input", str(corpus_file)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and out[-1].startswith("perplexity ")
    assert float(out[0]) < 0


def test_align_extract_decode_nbest_bleu_chain(tmp_path, capsys):
    src = tmp_path / "c.en"
    tgt = tmp_path / "c.ar"
    src.write_text("the book\nthe house\nthe book here\n" * 5, encoding="utf-8")
    tgt.write_text("AlktAb\nAlbyt\nAlktAb hnA\n" * 5, encoding="utf-8")
    alignments = tmp_path / "al"
    assert main([
        "align", "--source", str(src), "--target", str(tgt),
        "--iterations", "4", "-o", str(alignments),
    ]) == 0
    table = tmp_path / "pt"
    assert main([
        "extract", "--source", str(src), "--target", str(tgt),
        "--alignments", str(alignments),
        "--lex-fwd", str(alignments) + ".lex.fwd",
        "--lex-bwd", str(alignments) + ".lex.bwd",
        "-o", str(table),
    ]) == 0
    model = tmp_path / "m.arpa"
    assert main(["train-lm", str(tgt), "--order", "3", "-o", str(model)]) == 0
    capsys.readouterr()

    assert main([
        "decode", "--table", str(table), "--lm", str(model), "--input", str(src),
    ]) == 0
    hyp_lines = capsys.readouterr().out.splitlines()
    assert len(hyp_lines) == 15
    assert hyp_lines[0] == "AlktAb"

    assert main([
        "nbest", "--table", str(table), "--lm", str(model), "--input", str(src), "-n", "3",
    ]) == 0
    nbest_lines = capsys.readouterr().out.splitlines()
    assert all(len(line.split(" ||| ")) == 4 for line in nbest_lines)
    assert nbest_lines[0].split(" ||| ")[0] == "0"

    hyp_file = tmp_path / "hyp"
    hyp_file.write_text("\n".join(hyp_lines) + "\n", encoding="utf-8")
    assert main(["bleu", str(hyp_file), str(tgt)]) == 0
    assert capsys.readouterr().out.startswith("BLEU = ")


def test_mert_subcommand(tmp_path, capsys):
    src = tmp_path / "c.en"
    tgt = tmp_path / "c.ar"
    src.write_text("the book is here now\nthe house is here now\n" * 4, encoding="utf-8")
    tgt.write_text("AlktAb hnA alAn tmAm\nAlbyt hnA alAn tmAm\n" * 4, encoding="utf-8")
    alignments = tmp_path / "al"
    assert main(["align", "--source", str(src), "--target", str(tgt),
                 "-o", str(alignments)]) == 0
    table = tmp_path / "pt"
    assert main(["extract", "--source", str(src), "--target", str(tgt),
                 "--alignments", str(alignments),
                 "--lex-fwd", str(alignments) + ".lex.fwd",
                 "--lex-bwd", str(alignments) + ".lex.bwd", "-o", str(table)]) == 0
    model = tmp_path / "m.arpa"
    assert main(["train-lm", str(tgt), "--order", "2", "-o", str(model)]) == 0
    weights = tmp_path / "w.txt"
    assert main(["mert", "--dev-source", str(src), "--dev-target", str(tgt),
                 "--table", str(table), "--lm", str(model),
                 "--iterations", "2", "--nbest", "10", "--seed", "7",
                 "-o", str(weights)]) == 0
    capsys.readouterr()
    lines = weights.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8 and lines[0].startswith("lm ")
    assert "pool" in (tmp_path / "w.txt.log").read_text(encoding="utf-8")


def test_validate_reports_all_violations(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text(
        "[data]\ntrain_source = missing.en\n\n[clean]\nmax_ratio = nan\n\n[lm]\norder = 9\n\n"
        "[decoder]\nbeam_threshold = nan\n\n[run]\nwork_dir =\n",
        encoding="utf-8",
    )
    assert main(["validate", str(config)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "lm.order: order must be in 1..5, got 9" in out
    assert "data.train_source: no such file missing.en" in out
    assert "data.dev_source is required" in out  # all violations listed, not just the first
    assert "clean.max_ratio: max_ratio must be >= 1.0, got nan" in out
    assert "decoder.beam_threshold: beam_threshold must be >= 0, got nan" in out


def test_validate_names_the_values_out_of_range(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[clean]\nmax_len = 0\n\n[decoder]\nstack_size = 0\n", encoding="utf-8")
    assert main(["validate", str(config)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "clean.max_len: max_len must be >= 1, got 0" in out
    assert "decoder.stack_size: stack_size must be >= 1, got 0" in out


def test_validate_names_the_missing_tokenizer_files(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[tokenize]\ninventory = none.tsv\nlexicon = none.txt\n", encoding="utf-8")
    assert main(["validate", str(config)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "tokenize.inventory: no such file none.tsv" in out
    assert "tokenize.lexicon: no such file none.txt" in out


def test_validate_and_the_stage_subcommands_word_a_refusal_alike(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[tokenize]\nscheme = foo\n\n[lm]\norder = 0\n\n[align]\nheuristic = grow\n",
                      encoding="utf-8")
    assert main(["validate", str(config)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[6:9] == [
        "tokenize.scheme: unknown tokenization scheme 'foo' (expected atb or myd3)",
        "lm.order: order must be in 1..5, got 0",
        "align.heuristic: unknown symmetrization heuristic 'grow' "
        "(expected intersection, union, grow-diag-final)"]
    (tmp_path / "a").write_text("x\n", encoding="utf-8")
    for argv, line in (
            (["tokenize", "--scheme", "foo", "--input", str(tmp_path / "a")], out[6]),
            (["train-lm", str(tmp_path / "a"), "--order", "0", "-o", str(tmp_path / "lm")], out[7]),
            (["align", "--source", str(tmp_path / "a"), "--target", str(tmp_path / "a"),
              "--heuristic", "grow", "-o", str(tmp_path / "al")], out[8])):
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["ERROR usage: " + line.split(": ", 1)[1]]


@pytest.mark.parametrize("section, key, text", [
    ("lm", "order", "abc"), ("decoder", "distortion_limit", "2.5"), ("clean", "max_ratio", "x")])
def test_load_config_names_the_key_it_cannot_parse(tmp_path, capsys, section, key, text):
    config = tmp_path / "run.ini"
    config.write_text("[%s]\n%s = %s\n" % (section, key, text), encoding="utf-8")
    assert main(["validate", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "ERROR config: bad value for [%s] %s in %s: " % (section, key, config)), err


def test_validate_ok(small_toy, capsys):
    assert main(["validate", str(small_toy)]) == 0
    assert "valid" in capsys.readouterr().out


_ONE_PAIR = corpus.ParallelCorpus((corpus.SentencePair(("a",), ("x",)),))
_ONE_LINK = align.AlignmentMatrix(frozenset({(0, 0)}), 1, 1)


def _mert_on_no_sentences(iterations, nbest_size):
    mert.mert(corpus.ParallelCorpus(()), lambda w: None, Weights.uniform(), iterations,
              nbest_size, seed=0, log_lines=[])


# each setting with a range: the call of the module that reads it and owns
# its check, values that check refuses and their accepted neighbours
_COMPONENT_RULES = [
    ("stack_size", lambda v: DecoderConfig(v, None, None), [0], [1]),
    ("beam_threshold", lambda v: DecoderConfig(1, v, None),
     [math.nextafter(0.0, -1.0), math.nan], [0.0, None]),
    ("distortion_limit", lambda v: DecoderConfig(1, None, v), [-1], [0, None]),
    ("lm_order", lambda v: lm.train([("x",)], v), [0, lm.MAX_ORDER + 1], [1, lm.MAX_ORDER]),
    ("clean_max_len", lambda v: corpus.clean(_ONE_PAIR, v, 9.0), [0], [1]),
    ("clean_max_ratio", lambda v: corpus.clean(_ONE_PAIR, 80, v),
     [math.nextafter(1.0, 0.0), math.nan], [1.0]),
    ("align_iterations", lambda v: align.em_train(_ONE_PAIR, v), [0], [1]),
    ("align_heuristic", lambda v: align.symmetrize(_ONE_LINK, _ONE_LINK, v),
     ["grow-diag-final-and"], list(align.HEURISTICS)),
    ("max_phrase_len", lambda v: phrases.extract(_ONE_PAIR.pairs[0], _ONE_LINK, v), [0], [1]),
    ("mert_iterations", lambda v: _mert_on_no_sentences(v, 1), [0], [1]),
    ("mert_nbest", lambda v: _mert_on_no_sentences(1, v), [0], [1]),
    ("scheme", artok.Scheme.parse, ["myd2"], [scheme.value for scheme in artok.Scheme]),
]


@pytest.mark.parametrize("field, component, rejected, accepted", _COMPONENT_RULES,
                         ids=[row[0] for row in _COMPONENT_RULES])
def test_validate_draws_the_components_boundaries(field, component, rejected, accepted):
    defaults = pipeline.PipelineConfig()
    prefix = "%s.%s: " % pipeline.FIELDS[field].metadata["key"]

    def new_problems(value):
        changed = replace(defaults, **{field: value})
        return [p for p in pipeline.validate(changed) if p not in pipeline.validate(defaults)]

    for value in rejected:
        with pytest.raises(ParameterError) as refusal:
            component(value)
        assert new_problems(value) == [prefix + str(refusal.value)], value
    for value in accepted:
        assert not new_problems(value), value
        component(value)


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[lm]\norderr = 3\n", encoding="utf-8")
    assert main(["validate", str(config)]) == 1
    assert capsys.readouterr().err.startswith("ERROR config:")


def test_config_values_are_read_literally(tmp_path, capsys):
    # a '%' is no interpolation: the toy run in a directory named with one validates
    assert main(["make-toy-config", str(tmp_path / "run50%")]) == 0
    path = capsys.readouterr().out.strip()
    assert main(["validate", path]) == 0
    assert capsys.readouterr().err == ""
    assert pipeline.load_config(path).work_dir == str(tmp_path / "run50%" / "work")


@pytest.mark.parametrize("text, key", [
    ("[DEFAULT]\norder = 2\n\n[lm]\n", "order"),  # it would reach [lm] order
    ("[DEFAULT]\nwork_dir = x\n", "work_dir"),  # it would reach no section
])
def test_default_section_keys_rejected(tmp_path, capsys, text, key):
    config = tmp_path / "default.ini"
    config.write_text(text, encoding="utf-8")
    assert main(["validate", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["ERROR config: unknown config key [DEFAULT] %s" % key], err


def test_stage_requires_upstream(small_toy, capsys):
    assert main(["pipeline", str(small_toy), "--stage", "decode"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR stage:") and "prepare" in err


def test_pipeline_and_stage_reruns(small_toy, capsys):
    assert main(["pipeline", str(small_toy)]) == 0
    out = capsys.readouterr().out
    assert "tuned: BLEU" in out and "uniform: BLEU" in out

    cfg = pipeline.load_config(small_toy)
    work = Path(cfg.work_dir)
    manifest = json.loads((work / "lm.manifest.json").read_text(encoding="utf-8"))
    assert manifest["stage"] == "lm"
    assert manifest["params"]["order"] == 5
    assert all(len(h) == 64 for h in manifest["inputs"].values())

    # the prepare stage wrote '+'-marked tokenized Arabic
    tokenized = (work / "corpus.train.ar").read_text(encoding="utf-8")
    assert "Al+ " in tokenized
    # decoder output is evaluated tokenized but emitted detokenized
    assert "+" in (work / "test.hyp.ar").read_text(encoding="utf-8")
    assert "+" not in (work / "test.hyp.detok.ar").read_text(encoding="utf-8")

    # rerunning a stage alone from its artifacts is byte-identical, manifest included
    before = (work / "lm.arpa").read_bytes()
    manifest_before = (work / "lm.manifest.json").read_bytes()
    assert main(["pipeline", str(small_toy), "--stage", "lm"]) == 0
    capsys.readouterr()
    assert (work / "lm.arpa").read_bytes() == before
    assert (work / "lm.manifest.json").read_bytes() == manifest_before


def test_make_toy_config(tmp_path, capsys):
    assert main(["make-toy-config", str(tmp_path / "fresh")]) == 0
    path = capsys.readouterr().out.strip()
    cfg = pipeline.load_config(path)
    assert pipeline.validate(cfg) == []


def test_toy_config_made_in_a_relative_directory_validates_from_another(tmp_path, monkeypatch):
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path)
    pipeline.make_toy_config("toy-run")
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert pipeline.validate(pipeline.load_config(tmp_path / "toy-run" / "toy.ini")) == []


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_validates_and_lists_every_setting(tmp_path, monkeypatch):
    """README's example config is valid over the bundled toy files, and its
    key table names every setting with the default its field declares."""
    readme = _README.read_text(encoding="utf-8")
    pipeline.make_toy_config(tmp_path)  # the toy files, in tmp_path/data
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "readme.ini").write_text(example, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert pipeline.validate(pipeline.load_config("readme.ini")) == []
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| ([^|]+) \|", readme, re.M)
    assert sorted((section, key) for section, key, _ in rows) == sorted(pipeline._SETTINGS)
    for section, key, default in rows:
        setting = pipeline._SETTINGS[section, key]
        if setting.default == "":  # required, or the bundled file
            assert not default.startswith("`"), (section, key)
        else:
            assert setting.metadata["parse"](default.strip("` ")) == setting.default, (section, key)


def test_run_stage_unknown_name(small_toy):
    cfg = pipeline.load_config(small_toy)
    with pytest.raises(Exception):
        pipeline.run_stage("nope", cfg)


def test_missing_artifact_error_type(small_toy):
    cfg = pipeline.load_config(small_toy)
    with pytest.raises(MissingArtifactError):
        pipeline.run_stage("evaluate", cfg)


def _tiny_model_files(tmp_path):
    """Well-formed inputs for decode, extract, tokenize and validate over a two-word corpus."""
    texts = {
        "source": "a b\n",
        "target": "x y\n",
        "alignments": "0-0 1-1\n",
        "lexicon": "a\tx\t1\nb\ty\t1\n",
        "table": "a ||| x ||| 0.5 0.5 0.5 0.5\n",
        "weights": "".join("%s 0.125\n" % name for name in FEATURE_NAMES),
        "inventory": "w\tCONJ\n",
        "config": "[lm]\norder = 3\n",
    }
    files = {name: tmp_path / name for name in texts}
    for name, text in texts.items():
        files[name].write_text(text, encoding="utf-8")
    files["lm"] = tmp_path / "m.arpa"
    lm.write_arpa(lm.train([("x", "y")], 2), files["lm"])
    return files


_NAN_ARPA = "\\data\\\nngram 1=2\n\n\\1-grams:\nnan\tx\n-1.0\t<unk>\n\n\\end\\\n"


@pytest.mark.parametrize("broken, text", [
    ("weights", "lm 0.1 3\n"),
    ("weights", "lm 0.1\nlm 0.2\n"),
    ("weights", "".join("%s 0.125\n" % name for name in FEATURE_NAMES[1:])),
    ("weights", "lm nan\n"),
    ("weights", "lm -inf\n"),
    ("weights", "".join("%s 0.125\n" % name for name in FEATURE_NAMES) + "lmm 5\n"),
    ("weights", b"\xff\xfe"),
    *((name, b"\xff\xfe")
      for name in ("source", "table", "lm", "lexicon", "alignments", "inventory", "config")),
    ("lexicon", "a\tx\n"),
    ("lexicon", "a\tx\t0.5\na\tx\t0.7\n"),
    ("alignments", "0-x\n"),
    ("alignments", "0-0 9-9\n"),
    ("alignments", "0-0 1-1\n0-0\n"),
    ("lm", _NAN_ARPA),
    ("table", "a |||  ||| 0.5 0.5 0.5 0.5\n"),
    ("table", "a ||| x ||| 0.5 0.5 0.5 0.5\na ||| x ||| 0.9 0.5 0.5 0.5\n"),
    ("inventory", "w\n"),
    ("config", "order = 3\n[lm]\n"),
    ("config", "[lm]\norder = 3\norder = 4\n"),
])
def test_malformed_input_is_one_format_error_line(tmp_path, capsys, broken, text):
    # a config file's faults are config errors, every other file's are format
    # errors, and so is a file that is not UTF-8 text, which the line names
    files = _tiny_model_files(tmp_path)
    f = {name: str(path) for name, path in files.items()}
    files[broken].write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    decode = ["decode", "--table", f["table"], "--lm", f["lm"],
              "--weights", f["weights"], "--input", f["source"]]
    extract = ["extract", "--source", f["source"], "--target", f["target"],
               "--alignments", f["alignments"], "--lex-fwd", f["lexicon"],
               "--lex-bwd", f["lexicon"], "-o", str(tmp_path / "pt")]
    command = {"lexicon": extract, "alignments": extract,
               "inventory": ["tokenize", "--inventory", f["inventory"], "--input", f["target"]],
               "config": ["validate", f["config"]]}.get(broken, decode)
    assert main(command) == 1
    err = capsys.readouterr().err.splitlines()
    not_utf8 = isinstance(text, bytes)
    category = "config" if broken == "config" and not not_utf8 else "format"
    assert len(err) == 1 and err[0].startswith("ERROR %s:" % category), err
    if not_utf8:
        assert f[broken] in err[0], err


@pytest.mark.parametrize("command, category", [("validate", "config"), ("tokenize", "io")])
def test_an_error_line_escapes_every_line_break(tmp_path, capsys, command, category):
    # a missing config file is a config error and a directory read as input an
    # io error; both messages quote a path holding every character at which
    # str.splitlines ends a line, and each is escaped as repr() writes it
    breaks = "".join(c for c in map(chr, range(0x110000)) if len(("a%sb" % c).splitlines()) > 1)
    assert breaks == "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
    path = tmp_path / ("run%s.ini" % breaks)
    argv = ["validate", str(path)] if command == "validate" else ["tokenize", "--input", str(path)]
    if command == "tokenize":
        path.mkdir()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert err.startswith("ERROR %s: " % category) and ascii(breaks)[1:-1] in err, err


@pytest.mark.parametrize("alignments, message", [
    ("0-0 1-1\n", "alignment file {} has 1 lines but the corpus has 2 pairs"),
    ("0-0 1-1\n0-1 1-x\n", "{} line 2: bad link '1-x', expected i-j"),
    ("0-0 1-1\n0-1 2-0\n", "{} line 2: link (2,0) outside a 2x2 sentence pair"),
])
def test_extract_refuses_a_malformed_alignment_file(tmp_path, alignments, message):
    # the lines are parsed as extraction reads them, so a bad second line
    # raises after the first pair has been counted: still one ERROR line,
    # and no table
    files = _tiny_model_files(tmp_path)
    files["source"].write_text("a b\nb a\n", encoding="utf-8")
    files["target"].write_text("x y\ny x\n", encoding="utf-8")
    files["alignments"].write_text(alignments, encoding="utf-8")
    table = tmp_path / "pt"
    proc = subprocess.run(
        [sys.executable, "-m", "minismt.cli", "extract", "--source", str(files["source"]),
         "--target", str(files["target"]), "--alignments", str(files["alignments"]),
         "--lex-fwd", str(files["lexicon"]), "--lex-bwd", str(files["lexicon"]),
         "-o", str(table)], env=_child_env(), capture_output=True, timeout=60)
    assert proc.returncode == 1 and proc.stdout == b"", proc
    assert proc.stderr.decode("utf-8").splitlines() == [
        "ERROR format: " + message.format(files["alignments"])]
    assert not table.exists()


@pytest.mark.parametrize("prob", ["nan", "inf", "1.5", "-0.25"])
def test_lexicon_probability_outside_the_unit_interval(tmp_path, capsys, prob):
    files = _tiny_model_files(tmp_path)
    files["lexicon"].write_text("a\tx\t1\nb\ty\t%s\n" % prob, encoding="utf-8")
    table = tmp_path / "pt"
    assert main(["extract", "--source", str(files["source"]), "--target", str(files["target"]),
                 "--alignments", str(files["alignments"]), "--lex-fwd", str(files["lexicon"]),
                 "--lex-bwd", str(files["lexicon"]), "-o", str(table)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "ERROR format: %s line 2: probability %r is not in [0,1]" % (files["lexicon"], float(prob))]
    assert not table.exists()


@pytest.mark.parametrize("flag", ["--weights", "--lexicon"])
def test_an_input_file_named_dash_is_standard_input(tmp_path, monkeypatch, capsys, flag):
    files = _tiny_model_files(tmp_path)
    files["lexicon"] = pipeline.bundled_data("stems.bw.txt")
    files["target"].write_text("wAlktAb Aljdyd\n", encoding="utf-8")
    argv = {"--weights": ["decode", "--table", str(files["table"]), "--lm", str(files["lm"]),
                          "--weights", str(files["weights"]), "--input", str(files["source"])],
            "--lexicon": ["tokenize", "--scheme", "myd3", "--lexicon", str(files["lexicon"]),
                          "--input", str(files["target"])]}[flag]
    assert main(argv) == 0
    want = capsys.readouterr().out
    stdin = files[flag[2:]].read_text(encoding="utf-8")
    argv[argv.index(flag) + 1] = "-"
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("flag, value, message", [
    ("--stack-size", "0", "stack_size must be >= 1, got 0"),
    ("--beam-threshold", "nan", "beam_threshold must be >= 0, got nan"),
    ("--distortion-limit", "-1", "distortion_limit must be >= 0, got -1"),
], ids=["stack-size", "beam-threshold", "distortion-limit"])
def test_decode_refuses_a_bad_search_setting(tmp_path, capsys, flag, value, message):
    files = _tiny_model_files(tmp_path)
    assert main(["decode", "--table", str(files["table"]), "--lm", str(files["lm"]),
                 "--input", str(files["source"]), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["ERROR usage: " + message]


def test_extract_reports_the_entries_it_wrote(tmp_path, capsys):
    # 25 targets of one source word: the table keeps the best 20 of them
    n = phrases.TABLE_PRUNE_LIMIT + 5
    files = {name: tmp_path / name for name in ("c.en", "c.ar", "al", "lex.fwd", "lex.bwd")}
    texts = {"c.en": "a\n" * n, "c.ar": "".join("x%d\n" % k for k in range(n)), "al": "0-0\n" * n,
             "lex.fwd": "".join("a\tx%d\t%r\n" % (k, 1 / n) for k in range(n)),
             "lex.bwd": "".join("x%d\ta\t1\n" % k for k in range(n))}
    for name, text in texts.items():
        files[name].write_text(text, encoding="utf-8")
    table = tmp_path / "pt"
    assert main(["extract", "--source", str(files["c.en"]), "--target", str(files["c.ar"]),
                 "--alignments", str(files["al"]), "--lex-fwd", str(files["lex.fwd"]),
                 "--lex-bwd", str(files["lex.bwd"]), "-o", str(table)]) == 0
    lines = table.read_text(encoding="utf-8").splitlines()
    assert len(lines) == phrases.TABLE_PRUNE_LIMIT
    assert capsys.readouterr().out == "wrote %s (%d entries)\n" % (table, len(lines))


def test_a_bad_setting_is_refused_without_input(tmp_path, capsys):
    # each bound is checked before the input is read, so an empty one is refused too
    files = _tiny_model_files(tmp_path)
    for name in ("source", "target", "alignments"):
        files[name].write_text("", encoding="utf-8")
    table = tmp_path / "pt"
    assert main(["extract", "--source", str(files["source"]), "--target", str(files["target"]),
                 "--alignments", str(files["alignments"]), "--lex-fwd", str(files["lexicon"]),
                 "--lex-bwd", str(files["lexicon"]), "--max-len", "0", "-o", str(table)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["ERROR usage: max_len must be >= 1, got 0"]
    assert not table.exists()
    assert main(["nbest", "-n", "0", "--table", str(files["table"]), "--lm", str(files["lm"]),
                 "--input", str(files["source"])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["ERROR usage: nbest size must be >= 1, got 0"]


def test_an_unknown_heuristic_is_one_usage_error_line(tmp_path, capsys):
    files = _tiny_model_files(tmp_path)
    out = tmp_path / "out.align"
    assert main(["align", "--source", str(files["source"]), "--target", str(files["target"]),
                 "--heuristic", "Grow", "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "ERROR usage: unknown symmetrization heuristic 'grow' "
        "(expected intersection, union, grow-diag-final)"]
    assert list(tmp_path.glob("out.align*")) == []


def test_nbest_refuses_the_field_separator_as_an_input_token(tmp_path, capsys):
    # an unknown word is copied into the translation, where ||| would add a field
    files = _tiny_model_files(tmp_path)
    files["source"].write_text("a\na ||| b\n", encoding="utf-8")
    models = ["--table", str(files["table"]), "--lm", str(files["lm"]),
              "--input", str(files["source"])]
    assert main(["nbest", "-n", "1"] + models) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "ERROR data: input line 2 holds the token |||, the n-best format's field separator"]
    assert main(["decode"] + models) == 0
    assert capsys.readouterr().out == "x\nx ||| b\n"


def _child_env(drop=()):
    """This environment without the variables in `drop`, with the tested
    package's source directory first on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(Path(minismt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_non_utf8_stdin_is_one_format_error_line_in_c_locale():
    # without LANG and LC_ALL Python runs in the C locale, where standard
    # input would decode undecodable bytes to surrogates rather than fail
    env = _child_env(("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8"))

    def run(*argv):
        return subprocess.run([sys.executable, *argv], input=b"\xff\n", env=env,
                              capture_output=True, timeout=60)

    assert run("-c", "import sys; print(sys.stdin.errors)").stdout == b"surrogateescape\n"
    for command in (["tokenize"], ["detokenize"]):
        proc = run("-m", "minismt.cli", *command)
        err = proc.stderr.decode("utf-8").splitlines()
        assert proc.returncode == 1 and proc.stdout == b"", (command, proc)
        assert len(err) == 1 and err[0].startswith(
            "ERROR format: standard input is not UTF-8 text"), err


def _run_cli_on_two_workers(argv):
    """`minismt argv` in a fresh process whose stdout is a pipe, decoding and
    aligning on two workers, after an unflushed line "start"."""
    script = ("import sys; from minismt import cli, parallel; "
              "parallel._available_cpus = lambda: 2; print('start'); "
              "sys.exit(cli.main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(),
                          capture_output=True, timeout=120)


def test_nbest_and_decode_on_two_workers_print_the_serial_output_once(
        tmp_path, monkeypatch, capsys):
    files = _tiny_model_files(tmp_path)
    files["table"].write_text(
        "a ||| x ||| 0.5 0.5 0.5 0.5\na ||| y ||| 0.3 0.4 0.2 0.5\n"
        "b ||| y ||| 0.6 0.5 0.5 0.4\nb ||| x ||| 0.2 0.3 0.4 0.1\n"
        "a b ||| x y ||| 0.4 0.4 0.4 0.4\n", encoding="utf-8")
    files["source"].write_text("a b\nb a\na\nb a b a\nc a b\n\na a b b\n", encoding="utf-8")
    models = ["--table", str(files["table"]), "--lm", str(files["lm"]),
              "--input", str(files["source"])]
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
    for argv in (["nbest", "-n", "3"] + models, ["decode"] + models):
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert len(serial.splitlines()) >= 7
        proc = _run_cli_on_two_workers(argv)
        assert (proc.returncode, proc.stderr) == (0, b""), proc
        assert proc.stdout.decode("utf-8") == "start\n" + serial

    # an error raised in a worker is still one ERROR line
    proc = _run_cli_on_two_workers(["nbest", "-n", "0"] + models)
    assert proc.returncode == 1 and proc.stdout == b"start\n", proc
    assert proc.stderr.decode("utf-8").splitlines() == [
        "ERROR usage: nbest size must be >= 1, got 0"]


def test_align_on_an_empty_corpus_on_two_workers_is_one_error_line(tmp_path):
    for side in ("en", "ar"):
        (tmp_path / ("c." + side)).write_text("", encoding="utf-8")
    proc = _run_cli_on_two_workers(["align", "--source", str(tmp_path / "c.en"), "--target",
                                    str(tmp_path / "c.ar"), "-o", str(tmp_path / "al")])
    err = proc.stderr.decode("utf-8").splitlines()
    assert proc.returncode == 1 and proc.stdout == b"start\n", proc
    assert err == ["ERROR data: cannot run EM on an empty corpus"], err


@pytest.mark.parametrize("command, source, target, line", [
    ("align", "a b\nc\nd e\n", "x y\n\nz w\n", 2),  # c is seen only opposite an empty line
    ("align", "a b\nd e\n\n", "x y\nz w\nq\n", 3),
    ("train-lm", None, "x y\nz\n\nw\n", 3),
], ids=["align-empty-target", "align-empty-source", "train-lm"])
def test_an_empty_training_line_is_one_data_error_naming_it(tmp_path, command, source, target,
                                                            line):
    files = {"c.en": source, "c.ar": target}
    for name, text in files.items():
        if text is not None:
            (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = {"align": ["align", "--source", str(tmp_path / "c.en"), "--target",
                      str(tmp_path / "c.ar"), "-o", str(out)],
            "train-lm": ["train-lm", str(tmp_path / "c.ar"), "-o", str(out)]}[command]
    proc = subprocess.run([sys.executable, "-m", "minismt.cli", *argv], env=_child_env(),
                          capture_output=True, timeout=60)
    err = proc.stderr.decode("utf-8").splitlines()
    assert proc.returncode == 1 and proc.stdout == b"", proc
    assert len(err) == 1 and re.match(r"ERROR data: .*\bline %d\b" % line, err[0]), err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for name, text in files.items() if text is not None)


def test_crlf_copies_load_as_their_originals(small_run, tmp_path):
    # a line ends at "\n" only, so a CRLF line keeps its "\r", which each of
    # these formats strips as whitespace around its last field
    work = Path(pipeline.load_config(small_run).work_dir)
    loaders = {work / "weights.txt": Weights.from_file,
               work / "phrase-table.txt": lambda p: phrases.read_table(p).by_source,
               work / "lexicon.fwd": lambda p: align.read_lexicon(p).table,
               pipeline.bundled_data("clitics.bw.tsv"): artok.CliticInventory.load,
               small_run: pipeline.load_config}
    for path, load in loaders.items():
        crlf = tmp_path / path.name
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load(crlf) == load(path), path.name


def test_subcommands_use_pipeline_defaults():
    """Each stage subcommand's setting flags keep their names, default to
    their PipelineConfig field's default and parse a value as its field does."""
    models = ["--table", "pt", "--lm", "m.arpa"]
    search = {"--stack-size": ("stack_size", "7", 7),
              "--beam-threshold": ("beam_threshold", "inf", None),
              "--distortion-limit": ("distortion_limit", "none", None)}
    flags = {  # argv: {flag: (field, a value, what it parses to)}
        ("tokenize",): {"--scheme": ("scheme", "MYD3", "myd3"),
                        "--inventory": ("inventory", "inv.tsv", "inv.tsv"),
                        "--lexicon": ("lexicon", "stems.txt", "stems.txt")},
        ("train-lm", "c.ar", "-o", "m.arpa"): {"--order": ("lm_order", "3", 3)},
        ("align", "--source", "c.en", "--target", "c.ar", "-o", "al"): {
            "--iterations": ("align_iterations", "2", 2),
            "--heuristic": ("align_heuristic", "UNION", "union")},
        ("extract", "--source", "c.en", "--target", "c.ar", "--alignments", "al",
         "--lex-fwd", "f", "--lex-bwd", "b", "-o", "pt"): {
            "--max-len": ("max_phrase_len", "3", 3)},
        ("mert", "--dev-source", "d.en", "--dev-target", "d.ar", "-o", "w", *models): {
            "--iterations": ("mert_iterations", "2", 2), "--nbest": ("mert_nbest", "5", 5),
            "--seed": ("seed", "3", 3), **search},
        ("decode", *models): search,
        ("nbest", *models): search,
    }
    defaults = pipeline.PipelineConfig()
    parser = build_parser()
    for argv, settings in flags.items():
        args = vars(parser.parse_args(argv))
        given = vars(parser.parse_args([*argv, *(x for f, (_, text, _) in settings.items()
                                                 for x in (f, text))]))
        for flag, (name, _, want) in settings.items():
            dest = flag[2:].replace("-", "_")
            assert args[dest] == getattr(defaults, name), (argv[0], flag)
            assert given[dest] == want, (argv[0], flag)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The cut-down toy config after a full pipeline run."""
    config_path = _small_toy_config(tmp_path_factory.mktemp("full") / "run")
    assert main(["pipeline", str(config_path)]) == 0
    return config_path


def _copy_run(config_path, out):
    shutil.copytree(config_path.parent, out)
    copy = out / config_path.name
    copy.write_text(config_path.read_text(encoding="utf-8").replace(
        str(config_path.parent), str(out)), encoding="utf-8")
    return copy


def _drop_first_line(path):
    path.write_text(path.read_text(encoding="utf-8").split("\n", 1)[1], encoding="utf-8")


def _rerun_lm_at_order_3(config, work):
    config.write_text(config.read_text(encoding="utf-8") + "\n[lm]\norder = 3\n", encoding="utf-8")
    assert main(["pipeline", str(config), "--stage", "lm"]) == 0


def _overwrite_train_target(config, work):
    _drop_first_line(Path(pipeline.load_config(config).train_target))


@pytest.mark.parametrize("change, stage, writer, reason", [
    ("\n[lm]\norder = 3\n", "mert", "lm", "lm ran with other order"),
    ("\n[decoder]\nbeam_threshold = 5\n", "decode", "mert", "mert ran with other beam_threshold"),
    (lambda config, work: _drop_first_line(work / "phrase-table.txt"), "decode", "phrases",
     "phrase-table.txt changed since phrases wrote it"),
    (lambda config, work: (work / "lm.manifest.json").unlink(), "mert", "lm",
     "lm left no readable manifest"),
    (_rerun_lm_at_order_3, "decode", "mert", "lm.arpa changed since mert read it"),
    (_overwrite_train_target, "lm", "prepare", "toy.train.ar changed since prepare read it"),
    # decode reads no corpus.train.ar: the check reaches it through phrases' reads
    (lambda config, work: _drop_first_line(work / "corpus.train.ar"), "decode", "prepare",
     "corpus.train.ar changed since prepare wrote it"),
    (lambda config, work: (work / "corpus.train.ar").unlink(), "decode", "prepare",
     "corpus.train.ar is missing"),
], ids=["lm-order-changed", "beam-threshold-changed", "table-overwritten", "lm-manifest-deleted",
        "lm-rerun-at-new-order", "train-target-overwritten", "tokenized-train-target-overwritten",
        "tokenized-train-target-deleted"])
def test_stage_refuses_stale_inputs(small_run, tmp_path, capsys, change, stage, writer, reason):
    config = _copy_run(small_run, tmp_path / "run")
    work = Path(pipeline.load_config(config).work_dir)
    if callable(change):
        change(config, work)
    else:
        config.write_text(config.read_text(encoding="utf-8") + change, encoding="utf-8")
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    capsys.readouterr()
    assert main(["pipeline", str(config), "--stage", stage]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ERROR stage: stale artifact"), err
    assert err[0].endswith(" (%s); rerun stage '%s'" % (reason, writer)), err
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before  # nothing written


def test_pipeline_refuses_mle_smoothing_up_front(small_toy, capsys):
    work = Path(pipeline.load_config(small_toy).work_dir)
    small_toy.write_text(small_toy.read_text(encoding="utf-8") + "\n[lm]\nsmoothing = mle\n",
                         encoding="utf-8")
    for command in ("validate", "pipeline"):
        assert main([command, str(small_toy)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["ERROR config: unknown config key [lm] smoothing"], err
    assert not work.exists()


def test_subcommands_reproduce_the_pipeline_stages(small_run, tmp_path, capsys):
    cfg = pipeline.load_config(small_run)
    work = Path(cfg.work_dir)
    corpus_files = {name: str(work / ("corpus.%s" % name))
                    for name in ("train.en", "train.ar", "dev.en", "dev.ar", "test.en")}
    al, table, weights = tmp_path / "al", tmp_path / "pt", tmp_path / "w.txt"
    assert main(["align", "--source", corpus_files["train.en"],
                 "--target", corpus_files["train.ar"], "-o", str(al)]) == 0
    assert main(["extract", "--source", corpus_files["train.en"],
                 "--target", corpus_files["train.ar"], "--alignments", str(al),
                 "--lex-fwd", "%s.lex.fwd" % al, "--lex-bwd", "%s.lex.bwd" % al,
                 "-o", str(table)]) == 0
    # the run's config sets the MERT iterations; every other flag keeps its default
    assert main(["mert", "--dev-source", corpus_files["dev.en"],
                 "--dev-target", corpus_files["dev.ar"], "--table", str(table),
                 "--lm", str(work / "lm.arpa"), "--iterations", str(cfg.mert_iterations),
                 "-o", str(weights)]) == 0
    capsys.readouterr()
    assert main(["decode", "--table", str(table), "--lm", str(work / "lm.arpa"),
                 "--weights", str(work / "weights.txt"), "--input", corpus_files["test.en"]]) == 0
    hyps = capsys.readouterr().out
    assert hyps == (work / "test.hyp.ar").read_text(encoding="utf-8")
    for ours, theirs in ((al, "train.align"), ("%s.lex.fwd" % al, "lexicon.fwd"),
                         ("%s.lex.bwd" % al, "lexicon.bwd"), (table, "phrase-table.txt"),
                         (weights, "weights.txt"), ("%s.log" % weights, "mert.log")):
        assert Path(ours).read_bytes() == (work / theirs).read_bytes(), theirs
