#!/usr/bin/env python3
"""Search quality on the decode-long benchmark input, per stack size.

    python scripts/search_report.py STACK...

Builds decode-long's models and sentences as the benchmark does
(perfbench/workloads.DecodeLong at seed 20240601, tuned weights, distortion
limit 6) and decodes the 120 sentences 1-best at each stack size, and at
stack 100 as the reference. Each sentence that decodes is classed against
an unpruned forced decode of its reference (tests/oracles.search_outcome):
a search error, a model error, an unreachable reference, or exact. One line
per stack gives the sentences that failed, those four counts, the sum of the
1-best model scores, and how many 1-best scores rose and fell against stack
100, and how many hypotheses the 1-best searches built over the 120
sentences (counted by wrapping decode._Hyp here, so the decoder keeps no
counter). The last line of standard output is one JSON object holding the same
figures by stack size, each stack's with the sha256 of its 1-best lines (the
tokens joined by spaces) as "sha256", and of its n-best lists at the
pipeline's MERT n-best size as "nbest_sha256" (each list's repr of (tokens,
features, score) entries, as tests/data/toy_nbest.sha256 hashes them): one
line per sentence, a failed sentence's empty. Each row also holds the
sha256 of the stack-100 reference's 1-best lines as "reference_sha256", the
search configuration the benchmark decodes with. tests/data/decode_long.sha256
and tests/data/decode_long_nbest.sha256 hold the values at the pipeline's
default stack size and tests/data/decode_long_stack100.sha256 the
reference's, which CI compares, so a change to the search's output
regenerates them deliberately.
"""

import hashlib
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tests"))

import workloads  # noqa: E402  (puts src/ on the path)
from oracles import forced_decode, search_outcome  # noqa: E402
from minismt import decode, lm  # noqa: E402
from minismt.decode import Decoder, DecoderConfig  # noqa: E402
from minismt.errors import MinismtError  # noqa: E402
from minismt.pipeline import PipelineConfig  # noqa: E402

SEED = 20240601
REFERENCE_STACK = 100
OUTCOMES = ("search", "model", "unreachable", "exact")


def main(argv):
    try:
        stacks = [int(arg) for arg in argv]
    except ValueError:
        stacks = []
    if not stacks or min(stacks) < 1:
        sys.exit("usage: search_report.py STACK... (stack sizes >= 1)")
    bench = workloads.DecodeLong()
    with tempfile.TemporaryDirectory() as directory:
        bench.setup(Path(directory), SEED)
        model = lm.read_arpa(Path(directory) / "work" / "lm.arpa")
    table, weights = bench.decoder.table, bench.decoder.weights
    limit = workloads.DECODER_CONFIG.distortion_limit
    references = [refs[0] for refs in bench.references]
    forced = [forced_decode(s, r, table, model, weights, limit)
              for s, r in zip(bench.sentences, references)]

    # stack size -> (each 1-best, None where the search fails; seconds;
    # hypotheses built)
    decoded_at = {}
    hyp = decode._Hyp

    def decode_at(stack):
        if stack not in decoded_at:
            decoder = Decoder(table, model, weights, DecoderConfig(stack, None, limit))
            built = 0

            def counted(*args):
                nonlocal built
                built += 1
                return hyp(*args)

            decode._Hyp = counted
            try:
                start = time.perf_counter()
                bests = []
                for sentence in bench.sentences:
                    try:
                        bests.append(decoder.decode(sentence))
                    except MinismtError:
                        bests.append(None)
                seconds = time.perf_counter() - start
            finally:
                decode._Hyp = hyp
            decoded_at[stack] = bests, seconds, built
        return decoded_at[stack]

    def nbest_lines(stack):
        decoder = Decoder(table, model, weights, DecoderConfig(stack, None, limit))
        n = PipelineConfig().mert_nbest
        for sentence in bench.sentences:
            try:
                nbest = decoder.nbest(sentence, n)
            except MinismtError:
                yield "\n"
                continue
            yield repr([(t.tokens, t.features, t.score) for t in nbest]) + "\n"

    def sha256(lines):
        return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()

    def best_sha256(bests):
        return sha256(("" if b is None else " ".join(b.tokens)) + "\n" for b in bests)

    reference, _, _ = decode_at(REFERENCE_STACK)
    reference_sha256 = best_sha256(reference)
    summary = {}
    for stack in stacks:
        bests, seconds, built = decode_at(stack)
        decoded = [(b, r, f, base) for b, r, f, base in zip(bests, references, forced, reference)
                   if b is not None]
        outcomes = Counter(search_outcome(b, r, f) for b, r, f, _ in decoded)
        row = {"failed": bests.count(None), **{o: outcomes[o] for o in OUTCOMES},
               "score_sum": round(sum(b.score for b, *_ in decoded), 2),
               "higher": sum(base is not None and b.score > base.score
                             for b, _, _, base in decoded),
               "lower": sum(base is not None and b.score < base.score
                            for b, _, _, base in decoded),
               "built": built,
               "sha256": best_sha256(bests),
               "nbest_sha256": sha256(nbest_lines(stack)),
               "reference_sha256": reference_sha256}
        summary[stack] = row
        print("stack %d: %d failed; search/model/unreachable/exact %s; score sum %.2f; "
              "vs stack %d: %d higher, %d lower; %d built (%.1f s)"
              % (stack, row["failed"], " / ".join(str(row[o]) for o in OUTCOMES),
                 row["score_sum"], REFERENCE_STACK, row["higher"], row["lower"], built, seconds))
    print(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1:])
