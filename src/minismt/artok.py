"""Rule-based Arabic clitic tokenization and its deterministic inverse.

Two segmentation schemes are supported: ATB splits question, conjunction,
and prepositional proclitics plus pronominal enclitics but never the
definite article; MYD3 additionally splits the article and strips
diacritics first. Split points are marked with '+' (trailing on
proclitics, leading on enclitics), e.g. ``wAlktAb`` becomes ``w+ AlktAb``
under ATB and ``w+ Al+ ktAb`` under MYD3. segment_token gives one token's
marked segments as a tuple; tokenize gives a sentence's.

Segmentation is rule-plus-lexicon matching, not statistical
disambiguation: clitics are matched on the dediacritized skeleton of each
token before normalization (so hamza-marked particles stay recognizable),
a split must leave a stem that is in the lexicon or at least MIN_STEM_LEN
letters long, and among competing maximal analyses the one with the
longest stem (then fewest segments) wins. Emitted segments are slices of
the normalized token; since normalization is length-preserving,
detokenization reconstructs the scheme-normalized token exactly.

The engine is script-agnostic: inventories and fixtures may use Arabic
script or Buckwalter transliteration.
"""

import enum
import logging
from dataclasses import dataclass

from .errors import FormatError, ParameterError, read_lines

log = logging.getLogger(__name__)

MIN_STEM_LEN = 2

# tashkeel: tanween, short vowels, shadda, sukun, plus the dagger alif
DIACRITICS = frozenset(
    "ًٌٍَُِّْٰ"
)

# hamza/madda/wasla alif variants -> bare alif, in both scripts
_ALIF_VARIANTS = {
    "آ": "ا",
    "أ": "ا",
    "إ": "ا",
    "ٱ": "ا",
    "|": "A",
    ">": "A",
    "<": "A",
    "{": "A",
}
_ALIF_CHARS = frozenset("اآأإٱA><|{")
_FINAL_YA = {"ى": "ي", "Y": "y"}  # alif maqsura -> ya, word-finally
_LAM_FORMS = ("l", "ل")
_ARTICLE_PREFIXES = ("Al", "ال")


class Scheme(enum.Enum):
    ATB = "atb"
    MYD3 = "myd3"

    @classmethod
    def parse(cls, name):
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ParameterError("unknown tokenization scheme %r (expected %s)"
                                 % (name, " or ".join(scheme.value for scheme in cls)))


PROCLITIC_CLASSES = ("QUES", "CONJ", "PART", "DET")
ENCLITIC_CLASS = "ENC"


def dediacritize(text):
    """Remove Arabic diacritic marks; every other code point is untouched."""
    return "".join(ch for ch in text if ch not in DIACRITICS)


def normalize(text):
    """Map ALIF variants to bare ALIF and word-final ALIF-MAQSURA to YA.

    Length-preserving and idempotent; commutes with dediacritize (the
    word-final test skips trailing diacritics). Buckwalter equivalents of
    the mapped characters are handled too, so transliterated fixtures
    behave like script text.
    """
    return " ".join(_normalize_word(w) for w in text.split(" "))


def _normalize_word(word):
    chars = [_ALIF_VARIANTS.get(ch, ch) for ch in word]
    for i in range(len(chars) - 1, -1, -1):
        if chars[i] in DIACRITICS:
            continue
        if chars[i] in _FINAL_YA:
            chars[i] = _FINAL_YA[chars[i]]
        break
    return "".join(chars)


@dataclass(frozen=True)
class CliticInventory:
    """Clitic surface forms by positional class; classes must be disjoint."""

    proclitics: dict  # class name -> tuple of surfaces
    enclitics: tuple

    def __post_init__(self):
        seen = {}
        for cls in PROCLITIC_CLASSES:
            for surface in self.proclitics.get(cls, ()):
                _check_surface(surface, cls, seen)
        for surface in self.enclitics:
            _check_surface(surface, ENCLITIC_CLASS, seen)

    @classmethod
    def load(cls, path):
        """Read `surface<TAB>class` lines; '#' starts a comment."""
        proclitics = {name: [] for name in PROCLITIC_CLASSES}
        enclitics = []
        for lineno, raw in enumerate(read_lines(path), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError("%s line %d: expected surface<TAB>class" % (path, lineno))
            surface, name = parts[0], parts[1].strip().upper()
            if name in proclitics:
                proclitics[name].append(surface)
            elif name == ENCLITIC_CLASS:
                enclitics.append(surface)
            else:
                raise FormatError("%s line %d: unknown clitic class %r" % (path, lineno, name))
        return cls({k: tuple(v) for k, v in proclitics.items()}, tuple(enclitics))


def _check_surface(surface, cls, seen):
    if not surface or any(ch.isspace() for ch in surface):
        raise FormatError("bad clitic surface %r in class %s" % (surface, cls))
    if surface in seen and seen[surface] != cls:
        raise FormatError(
            "clitic %r appears in classes %s and %s; classes must be disjoint"
            % (surface, seen[surface], cls)
        )
    seen[surface] = cls


def load_lexicon(path):
    """Stem list, one entry per line (dediacritized forms)."""
    entries = (line.strip() for line in read_lines(path))
    return frozenset(e for e in entries if e and not e.startswith("#"))


@dataclass(frozen=True)
class _Analysis:
    proclitics: tuple  # (surface, skeleton chars consumed) pairs
    stem_start: int
    stem_end: int  # skeleton slice bounds
    enclitic: str | None


def _licensed(stem, lexicon):
    return stem in lexicon or len(stem) >= MIN_STEM_LEN


def _det_parts(surface):
    """Split a DET surface into (leading alif, remainder) when it has one."""
    if len(surface) >= 2 and surface[0] in _ALIF_CHARS:
        return surface[0], surface[1:]
    return None, None


def _analyses(skeleton, scheme, inventory, lexicon):
    """All licensed clitic analyses of a dediacritized token."""
    allowed = PROCLITIC_CLASSES if scheme is Scheme.MYD3 else ("QUES", "CONJ", "PART")
    found = []

    def close(pos, proclitics):
        rest = skeleton[pos:]
        options = [(len(skeleton), None)]
        for enc in inventory.enclitics:
            if len(enc) < len(rest) and rest.endswith(enc):
                options.append((len(skeleton) - len(enc), enc))
        for stem_end, enc in options:
            stem = skeleton[pos:stem_end]
            if stem and _licensed(stem, lexicon):
                found.append(_Analysis(tuple(proclitics), pos, stem_end, enc))

    def extend(pos, class_idx, proclitics, prev_surface):
        close(pos, proclitics)
        rest = skeleton[pos:]
        for ci in range(class_idx, len(PROCLITIC_CLASSES)):
            cls = PROCLITIC_CLASSES[ci]
            if cls not in allowed:
                continue
            for surface in inventory.proclitics.get(cls, ()):
                if cls == "DET":
                    alif, tail = _det_parts(surface)
                    if alif is not None and prev_surface == tail:
                        # 'll...' spells particle l + article; consume the bare
                        # lam but emit the full article so detokenization's
                        # contraction rule reproduces the surface exactly
                        if len(tail) < len(rest) and rest.startswith(tail):
                            extend(pos + len(tail), ci + 1, proclitics + [(surface, len(tail))], surface)
                        continue  # the uncontracted spelling never follows that particle
                if len(surface) < len(rest) and rest.startswith(surface):
                    extend(pos + len(surface), ci + 1, proclitics + [(surface, len(surface))], surface)

    extend(0, 0, [], None)
    return found


def _is_refinement(a, b, skeleton, lexicon):
    """True when b strips strictly more clitics than a while agreeing with it.

    An analysis whose stem is a known lexicon word is immune to refinements
    that would leave an unknown stem; this is how the lexicon constrains
    splitting rather than merely licensing it.
    """
    if b is a or len(b.proclitics) < len(a.proclitics):
        return False
    if b.proclitics[: len(a.proclitics)] != a.proclitics:
        return False
    if a.enclitic is None:
        deeper = len(b.proclitics) > len(a.proclitics) or b.enclitic is not None
    else:
        deeper = b.enclitic == a.enclitic and len(b.proclitics) > len(a.proclitics)
    if not deeper:
        return False
    a_stem = skeleton[a.stem_start : a.stem_end]
    b_stem = skeleton[b.stem_start : b.stem_end]
    return not (a_stem in lexicon and b_stem not in lexicon)


def _select_analysis(analyses, skeleton, lexicon):
    maximal = [
        a for a in analyses if not any(_is_refinement(a, b, skeleton, lexicon) for b in analyses)
    ]
    if not maximal:
        return None

    def rank(a):
        segments = len(a.proclitics) + 1 + (1 if a.enclitic else 0)
        flat = "|".join(s for s, _ in a.proclitics)
        flat += "#%d#%d#%s" % (a.stem_start, a.stem_end, a.enclitic or "")
        return (-(a.stem_end - a.stem_start), segments, flat)

    return min(maximal, key=rank)


def _skeleton_map(text):
    """Skeleton string plus, for each skeleton index, its index in `text`."""
    chars, positions = [], []
    for i, ch in enumerate(text):
        if ch not in DIACRITICS:
            chars.append(ch)
            positions.append(i)
    positions.append(len(text))
    return "".join(chars), positions


def _work_form(token, scheme):
    return token if scheme is Scheme.ATB else dediacritize(token)


def segment_token(token, scheme, inventory, lexicon):
    """The '+'-marked segments of one surface token: proclitics carry a
    trailing '+', an enclitic a leading '+', and a token where nothing splits
    is its one normalized segment.

    ATB keeps the token's diacritics in the emitted slices; MYD3 works on
    the dediacritized form throughout.
    """
    work = _work_form(token, scheme)
    if not work:
        log.warning("token %r has no characters left after dediacritization", token)
        return (normalize(token),)
    skeleton, positions = _skeleton_map(work)
    normalized = normalize(work)
    analysis = _select_analysis(_analyses(skeleton, scheme, inventory, lexicon), skeleton, lexicon)
    if analysis is None:
        return (normalized,)

    segments, pos = [], 0
    for surface, consumed in analysis.proclitics:
        if consumed < len(surface):  # contracted article: emit it in full
            segments.append(normalize(surface) + "+")
        else:
            segments.append(normalized[positions[pos] : positions[pos + consumed]] + "+")
        pos += consumed
    segments.append(normalized[positions[analysis.stem_start] : positions[analysis.stem_end]])
    if analysis.enclitic:
        segments.append("+" + normalized[positions[analysis.stem_end] :])
    return tuple(segments)


def tokenize_all(sentences, scheme, inventory, lexicon):
    """Yield tokenize(s, ...) for each sentence, segmenting each distinct token once.

    The segments of a token depend only on the token and the three fixed
    arguments, so one memo serves the whole call. A token with nothing left
    after dediacritization stays out of it, so its warning is logged at each
    occurrence.
    """
    memo = {}
    for sentence in sentences:
        out = []
        for token in sentence:
            segments = memo.get(token)
            if segments is None:
                segments = segment_token(token, scheme, inventory, lexicon)
                if _work_form(token, scheme):
                    memo[token] = segments
            out.extend(segments)
        yield tuple(out)


def tokenize(sentence, scheme, inventory, lexicon):
    """Clitic-segment every token of a sentence into '+'-marked segments."""
    return next(tokenize_all((sentence,), scheme, inventory, lexicon))


def detokenize(sentence):
    """Rejoin '+'-marked segments into surface tokens (inverse of tokenize).

    The article contracts onto a preceding bare-lam particle (l+ Al+ -> ll).
    Dangling markers are logged and stripped rather than fatal.
    """
    out = []
    pending = []
    for token in sentence:
        if token == "+":
            log.warning("bare '+' token dropped during detokenization")
            continue
        if token.endswith("+") and not token.startswith("+") and len(token) > 1:
            pending.append(token[:-1])
        elif token.startswith("+") and len(token) > 1:
            enclitic = token[1:]
            if pending:
                log.warning("enclitic %r follows a proclitic with no stem", token)
                out.append(_join_proclitics(pending, "") + enclitic)
                pending = []
            elif out:
                out[-1] = out[-1] + enclitic
            else:
                log.warning("dangling enclitic %r at sentence start; marker stripped", token)
                out.append(enclitic)
        else:
            out.append(_join_proclitics(pending, token))
            pending = []
    if pending:
        log.warning("dangling proclitic(s) %r at sentence end; markers stripped", pending)
        out.append(_join_proclitics(pending, ""))
    return tuple(out)


def _join_proclitics(proclitics, stem):
    joined = ""
    prev = None
    for piece in proclitics:
        if prev in _LAM_FORMS and piece.startswith(_ARTICLE_PREFIXES):
            joined += piece[1:]
        else:
            joined += piece
        prev = piece
    return joined + stem
