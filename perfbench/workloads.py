"""One benchmark workload, run in a fresh process by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Passes run back to back (closed loop, one thread) until they have taken
--seconds and at least the workload's min_passes have run. Before every pass,
set-up runs setups_per_pass times, each in a fresh directory, and set-up time
is reported as the median of all of them; throughput is the words of all
passes over their summed time. With --trace 1 the run makes one untraced pass,
then installs the tracer and makes one traced set-up and one traced pass; the
per-layer metrics come from the traced ones. The result, with the output
checks, is written as JSON to --out.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from minismt import bleu, cli, lm, phrases, pipeline  # noqa: E402
from minismt.decode import Decoder, DecoderConfig, Weights  # noqa: E402
from minismt.errors import MinismtError  # noqa: E402

TRAIN_STAGES = ("prepare", "lm", "align", "phrases")
# the pipeline's decoder defaults, written out
DECODER_CONFIG = DecoderConfig(stack_size=100, beam_threshold=None, distortion_limit=6)
# weights tuned by the toy pipeline on the bundled corpus
TUNED_WEIGHTS = HERE / "tuned.weights"
STATE = ROOT / ".perfbench"


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _words(paths):
    return sum(len(line.split()) for p in paths for line in Path(p).read_text("utf-8").splitlines())


def _stage_outputs(work):
    """{artifact name: sha256} over every stage manifest in work."""
    digests = {}
    for manifest in sorted(Path(work).glob("*.manifest.json")):
        for path, digest in json.loads(manifest.read_text("utf-8"))["outputs"].items():
            digests[Path(path).name] = digest
    return digests


def _read_tokenized(path):
    return [tuple(line.split()) for line in Path(path).read_text("utf-8").splitlines()]


class Pass:
    """What one pass did: the work it attempted and failed, and its outputs."""

    def __init__(self, words, attempted, failed, outputs, latencies=(), report=None):
        self.words = words
        self.attempted = attempted
        self.failed = failed
        self.outputs = outputs  # compared across passes and runs at the same seed
        self.latencies = list(latencies)
        self.report = report or {}


# ---- toy-pipeline: the user's whole train-tune-test run --------------------


class ToyPipeline:
    """cli `pipeline` on the toy corpus with make-toy-config's settings.

    The corpus is always the one the generator draws at its own seed, the
    bundled corpus: how many MERT rounds the pipeline runs depends on the
    corpus (3 to 5 on the seeds tried, 23 s to 35 s), which is a larger
    spread than any bound could allow, so the seed does not vary this input.
    """

    name = "toy-pipeline"
    setups_per_pass = 100
    min_passes = 1

    def setup(self, directory, seed):
        data = {split: inputs.write_split(directory, "toy.%s" % split, pairs)
                for split, pairs in inputs.toy_splits(inputs.TOY_SEED).items()}
        self.corpus = [path for paths in data.values() for path in paths]
        self.words = _words(p[0] for p in data.values())
        self.ini = inputs.write_config(directory / "toy.ini", data, directory / "work")
        self.work = directory / "work"

    def checks(self):
        return ["toy corpus differs from the bundled %s" % path.name for path in self.corpus
                if path.read_bytes() != (inputs.BUNDLED / path.name).read_bytes()]

    def run_pass(self):
        shutil.rmtree(self.work, ignore_errors=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["pipeline", str(self.ini)])
        return Pass(self.words, 1, int(code != 0), _stage_outputs(self.work),
                    report={"exit_code": code, "bleu": out.getvalue()})

    def check_pass(self, p):
        problems = []
        if p.report["exit_code"] != 0:
            return ["pipeline exited with %r" % p.report["exit_code"]]
        report = (self.work / "bleu.txt").read_text("utf-8")
        scores = dict(re.findall(r"^(tuned|uniform): BLEU = ([0-9.]+),", report, re.M))
        if set(scores) != {"tuned", "uniform"}:
            return ["bleu.txt does not parse: %r" % report]
        p.report["bleu_tuned"] = float(scores["tuned"])
        p.report["bleu_uniform"] = float(scores["uniform"])
        if p.report["bleu_tuned"] < p.report["bleu_uniform"]:
            problems.append("tuned BLEU %s below uniform %s" % (scores["tuned"], scores["uniform"]))
        if p.report["bleu"] != report:
            problems.append("printed report differs from bleu.txt")
        return problems

    def report(self, passes):
        last = passes[-1].report
        return {"pipeline_s": (statistics.median(p.report["seconds"] for p in passes), "s"),
                "bleu_tuned": (last.get("bleu_tuned", 0.0), "BLEU"),
                "bleu_uniform": (last.get("bleu_uniform", 0.0), "BLEU")}


# ---- decode-long: 1-best decoding of long sentences ------------------------


class DecodeLong:
    """Models trained on 1000 generated pairs; 120 sentences of 1-4 clauses decoded."""

    name = "decode-long"
    setups_per_pass = 3
    min_passes = 1

    def setup(self, directory, seed):
        rng = random.Random(seed)
        train = inputs.joined_pairs(rng, [1] * 1000)
        test = inputs.joined_pairs(rng, inputs.stratified_counts(rng, (1, 2, 3, 4), 30))
        test_paths = inputs.write_split(directory, "test", test)
        data = {"train": inputs.write_split(directory, "train", train),
                "dev": test_paths, "test": test_paths}
        work = directory / "work"
        cfg = pipeline.load_config(inputs.write_config(directory / "bench.ini", data, work))
        for stage in TRAIN_STAGES:
            pipeline.run_stage(stage, cfg)
        table = phrases.read_table(work / "phrase-table.txt")
        model = lm.read_arpa(work / "lm.arpa")
        self.sentences = _read_tokenized(work / "corpus.test.en")
        self.references = [[r] for r in _read_tokenized(work / "corpus.test.ar")]
        self.decoder = Decoder(table, model, Weights.from_file(TUNED_WEIGHTS), DECODER_CONFIG)

    def checks(self):
        return []

    def run_pass(self):
        hyps, latencies, failed = [], [], 0
        for sentence in self.sentences:
            start = time.perf_counter()
            try:
                tokens = self.decoder.decode(sentence).tokens
            except MinismtError:
                # a failed sentence scores as an empty hypothesis
                failed += 1
                tokens = ()
            latencies.append(time.perf_counter() - start)
            hyps.append(tokens)
        words = sum(len(s) for s in self.sentences)
        text = "\n".join(" ".join(h) for h in hyps)
        return Pass(words, len(self.sentences), failed,
                    {"hypotheses": hashlib.sha256(text.encode()).hexdigest()},
                    latencies, {"hyps": hyps})

    def check_pass(self, p):
        if len(p.report["hyps"]) != len(self.references):
            return ["%d hypotheses for %d sentences" % (len(p.report["hyps"]), len(self.references))]
        stats = bleu.corpus_stats(p.report.pop("hyps"), self.references)
        p.report["decode_bleu"] = 100.0 * bleu.corpus_bleu(stats)
        return []

    def report(self, passes):
        latencies = [x for p in passes for x in p.latencies]
        deciles = statistics.quantiles(latencies, n=10)
        seconds = sum(p.report["seconds"] for p in passes)
        return {
            "decode_words_per_s": (sum(p.words for p in passes) / seconds, "words/s"),
            "decode_latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "decode_latency_p90_ms": (1000.0 * deciles[8], "ms"),
            "decode_latency_samples": (len(latencies), "count"),
            "decode_latency_beyond_p90": (sum(x > deciles[8] for x in latencies), "count"),
            "decode_bleu": (passes[-1].report.get("decode_bleu", 0.0), "BLEU"),
        }


# ---- train-large: the training stages on a large corpus --------------------


class TrainLarge:
    """Stages prepare -> lm -> align -> phrases on 10,000 generated pairs of 1-2 clauses."""

    name = "train-large"
    setups_per_pass = 6
    min_passes = 2

    def setup(self, directory, seed):
        rng = random.Random(seed)
        train = inputs.joined_pairs(rng, inputs.stratified_counts(rng, (1, 2), 5000))
        small = inputs.joined_pairs(rng, [1] * 20)
        data = {"train": inputs.write_split(directory, "train", train),
                "dev": inputs.write_split(directory, "dev", small),
                "test": inputs.write_split(directory, "test", small)}
        self.work = directory / "work"
        self.cfg = pipeline.load_config(
            inputs.write_config(directory / "bench.ini", data, self.work))
        self.pairs = len(train)
        self.words = _words([data["train"][0]])

    def checks(self):
        return []

    def run_pass(self):
        shutil.rmtree(self.work, ignore_errors=True)
        for stage in TRAIN_STAGES:
            pipeline.run_stage(stage, self.cfg)
        return Pass(self.words, 1, 0, _stage_outputs(self.work))

    def check_pass(self, p):
        problems = []
        model = lm.read_arpa(self.work / "lm.arpa")
        if model.order != 5 or not model.probs:
            problems.append("lm.arpa reloads as an order-%d model" % model.order)
        table = phrases.read_table(self.work / "phrase-table.txt")
        if not len(table):
            problems.append("phrase-table.txt reloads empty")
        for name in ("lm.arpa", "phrase-table.txt"):
            if _sha256(self.work / name) != p.outputs.get(name):
                problems.append("%s differs from its manifest hash" % name)
        return problems

    def report(self, passes):
        return {"train_pairs_per_s": (self.pairs / statistics.median(
            p.report["seconds"] for p in passes), "1/s")}


WORKLOADS = {w.name: w for w in (ToyPipeline, DecodeLong, TrainLarge)}


# ---- running a workload ------------------------------------------------------


def _fingerprint():
    """Hash of the program, the generator and the benchmark's code, naming expected outputs."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "minismt").rglob("*")) + [inputs.GENERATOR] + sorted(
        HERE.glob("*.py")) + [TUNED_WEIGHTS]
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _check_against_earlier_runs(workload, seed, outputs):
    """Outputs must repeat across runs of the same code at the same seed."""
    path = STATE / "expected" / _fingerprint() / ("%s-%d.json" % (workload, seed))
    if path.is_file():
        expected = json.loads(path.read_text("utf-8"))
        return [] if expected == outputs else [
            "outputs differ from an earlier run at seed %d: %s" % (
                seed, sorted(k for k in set(expected) | set(outputs)
                             if expected.get(k) != outputs.get(k)))]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", "utf-8")
    return []


def _timed_pass(workload):
    start = time.perf_counter()
    p = workload.run_pass()
    p.report["seconds"] = time.perf_counter() - start
    return p


def run(name, seed, seconds, trace, scratch):
    workload = WORKLOADS[name]()
    setup_times = []
    setup_speed, pass_speed = SpeedProbe(), SpeedProbe()

    def set_up(repeats):
        # each set-up writes a fresh directory; the next pass uses the last one
        for _ in range(repeats):
            directory = scratch / ("setup%d" % len(setup_times))
            directory.mkdir(parents=True)
            with setup_speed:
                start = time.perf_counter()
                workload.setup(directory, seed)
                setup_times.append(time.perf_counter() - start)
        return workload.checks()

    # set-up repeats before every pass, so that its median samples the
    # machine's speed over the whole run, as the passes do
    passes, problems = [], []
    while not passes or (not trace and (len(passes) < workload.min_passes or sum(
            p.report["seconds"] for p in passes) < seconds)):
        problems += set_up(1 if trace else workload.setups_per_pass)
        with pass_speed:
            passes.append(_timed_pass(workload))
        problems += workload.check_pass(passes[-1])

    for p in passes[1:]:
        if p.outputs != passes[0].outputs:
            problems.append("outputs differ between passes of one run")
    problems += _check_against_earlier_runs(name, seed, passes[0].outputs)

    result = {"setup_times": setup_times}
    if not trace:
        result["setup_slowdown"] = setup_speed.slowdown()
        result["pass_slowdown"] = pass_speed.slowdown()
    else:
        tracer = tracing.Tracer()
        tracer.install()
        directory = scratch / "traced"
        directory.mkdir()
        workload.setup(directory, seed)
        traced = _timed_pass(workload)
        probes = tracer.counters.get("trace.probe_s", 0.0)
        problems += tracer.untraced(workload.check_pass, traced)
        if traced.outputs != passes[0].outputs:
            problems.append("traced outputs differ from untraced outputs")
        layers = tracer.metrics()
        # one sample each side: the machine's speed drift can outweigh the
        # tracing cost, so this is a rough figure and may even be negative
        layers["trace.overhead_s"] = (traced.report["seconds"] - probes
                                      - passes[0].report["seconds"], "s")
        STATE.mkdir(exist_ok=True)
        tracer.write_spans(STATE / ("trace-%s-%d.json" % (name, seed)))
        result["layers"] = layers

    times = [p.report["seconds"] for p in passes]
    result.update({
        "problems": problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "pass_times": times,
        "words_per_s": sum(p.words for p in passes) / sum(times),
        "report": workload.report(passes),
    })
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True, help="empty directory for set-up and passes")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(args.scratch))
    Path(args.out).write_text(json.dumps(result) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
