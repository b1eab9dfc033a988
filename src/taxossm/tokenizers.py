"""Nucleotide tokenizers: character, non-overlapping k-mer, and trained BPE.

All vocabularies reserve ids 0..3 for PAD/UNK/BOS/EOS and frame encoded
sequences as [BOS, tokens..., EOS]. Padding is a batching concern and never
happens here.
"""
from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError, ParseError

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIAL_NAMES = ("<pad>", "<unk>", "<bos>", "<eos>")
N_SPECIALS = 4

_ACGT = "ACGT"
_SEP = "\0"  # separates sequences in a bpe_train stream; no token is chr(0)


class _Letters(dict):
    """Token character of each letter, by code point; any other letter reads as UNK."""

    def __missing__(self, code):
        return chr(UNK)


@dataclass
class Vocab:
    """Token registry for one tokenizer kind.

    kind is "char", "kmer" (with kmer_k set) or "bpe". Ids are contiguous with
    the four specials first. A BPE table is the specials, the sorted letters,
    then one token per merge in rank order; each merge joins two tokens made
    before it into a new one, or building the vocab raises ConfigError. A BPE
    vocab holds at most 1,114,112 tokens, one per code point.
    """

    kind: str
    token_to_id: dict[str, int]
    merges: list[tuple[str, str]] = field(default_factory=list)
    kmer_k: int | None = None

    def __post_init__(self):
        self.id_to_token = [None] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            self.id_to_token[i] = tok
        if self.kind == "bpe":
            self._build_replay()

    def _build_replay(self):
        """Spell each token as the character of its id: a letter table and, per
        merge, the (pair, merged) strings that bpe_encode replaces in rank order.

        The replay equals lowest-rank-first BPE only if each merge joins
        letters or tokens of earlier merges (never a special: UNK stands for
        unknown letters) and makes a new token; both are checked.
        """
        letters = sorted(t for t in self.token_to_id if len(t) == 1)
        made = set(letters)
        for a, b in self.merges:
            if a not in made or b not in made:
                raise ConfigError(f"merge ({a},{b}) references unknown token")
            made.add(a + b)
        if list(SPECIAL_NAMES) + letters + [a + b for a, b in self.merges] != self.id_to_token:
            raise ConfigError("merge replay does not reconstruct the vocabulary")
        char = {tok: chr(i) for tok, i in self.token_to_id.items()}
        self._letters = _Letters({ord(t): char[t] for t in letters})
        self._replay = [(char[a] + char[b], char[a + b]) for a, b in self.merges]

    def __len__(self) -> int:
        return len(self.token_to_id)


@dataclass
class TokenSequence:
    ids: list[int]

    def __len__(self) -> int:
        return len(self.ids)


def _base_table(tokens) -> dict[str, int]:
    table = {name: i for i, name in enumerate(SPECIAL_NAMES)}
    for tok in tokens:
        table[tok] = len(table)
    return table


def char_vocab() -> Vocab:
    return Vocab("char", _base_table(_ACGT))


def kmer_vocab(k: int) -> Vocab:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    kmers = ("".join(p) for p in itertools.product(_ACGT, repeat=k))
    return Vocab("kmer", _base_table(kmers), kmer_k=k)


def _frame(body: list[int], max_len: int) -> TokenSequence:
    """BOS, the body, EOS: the body is cut so the whole holds at most `max_len` ids."""
    if max_len < 2:
        raise ConfigError(f"max_len must leave room for BOS and EOS, got {max_len}")
    return TokenSequence([BOS] + body[:max_len - 2] + [EOS])


def char_encode(vocab: Vocab, sequence: str, max_len: int = 10**9) -> TokenSequence:
    """One token per character; non-ACGT characters map to UNK."""
    if vocab.kind != "char":
        raise ConfigError(f"char_encode needs a char vocab, got '{vocab.kind}'")
    body = [vocab.token_to_id.get(ch, UNK) for ch in sequence]
    return _frame(body, max_len)


def kmer_encode(vocab: Vocab, sequence: str, max_len: int = 10**9) -> TokenSequence:
    """Non-overlapping k-wide windows, left aligned; a short trailing remainder is dropped."""
    if vocab.kind != "kmer":
        raise ConfigError(f"kmer_encode needs a kmer vocab, got '{vocab.kind}'")
    k = vocab.kmer_k
    body = []
    for start in range(0, len(sequence) - k + 1, k):
        window = sequence[start:start + k]
        body.append(vocab.token_to_id.get(window, UNK))
    return _frame(body, max_len)


def bpe_train(corpus: list[str], vocab_size: int) -> Vocab:
    """Standard BPE over the observed character alphabet.

    Repeatedly merges the most frequent adjacent pair until `vocab_size` tokens
    exist or no pair occurs at least twice. A tie on count goes to the pair
    whose concatenated string sorts first; a tie on that too goes to the pair
    that occurs first in the current token stream (the corpus in order, each
    sequence left to right). A merge replaces every occurrence left to right
    without overlap, so a run of equal tokens merges pairwise from its left
    end. Single-threaded and deterministic.

    The corpus is held as one string in corpus order: token id i is the
    character chr(i - 3), since the alphabet starts at chr(1), with chr(0)
    around each sequence. A merge is one `str.replace`. Pair counts live in a
    dict and change only around the merged positions; the next merge comes
    from a lazy max-heap keyed by (-count, concatenation) that holds only the
    pairs counted at least twice.
    """
    if not corpus:
        raise ConfigError("bpe_train needs a non-empty corpus")
    alphabet = sorted(set("".join(corpus)))
    # equality is the valid zero-merge boundary: specials + alphabet, no merges
    if vocab_size < N_SPECIALS + len(alphabet):
        raise ConfigError(
            f"vocab_size must be at least specials + alphabet = {N_SPECIALS + len(alphabet)}, "
            f"got {vocab_size}"
        )
    tokens = _base_table(alphabet)
    merges: list[tuple[str, str]] = []
    surface = [_SEP] + alphabet                   # token chr(i) spells surface[i]
    char_of = {tok: chr(i) for i, tok in enumerate(surface) if i}

    table = str.maketrans(char_of)
    stream = _SEP + _SEP.join(seq.translate(table) for seq in corpus) + _SEP
    counts: dict[str, int] = {                    # two-character pair -> count
        x + y: c for (x, y), c in Counter(zip(stream, stream[1:])).items()
        if x != _SEP and y != _SEP
    }

    def key(pair: str, count: int):
        return (-count, surface[ord(pair[0])] + surface[ord(pair[1])], pair)

    # every pair counted at least twice has a heap entry with a count at least
    # its current one: a rise pushes a new entry, and an entry above a count
    # that fell is pushed again at that count when it comes up (_pop_best)
    heap = [key(pair, c) for pair, c in counts.items() if c >= 2]
    heapq.heapify(heap)

    while len(tokens) < vocab_size:
        best = _pop_best(heap, counts, key, stream)
        if best is None:
            break
        a, b = best
        merges.append((surface[ord(a)], surface[ord(b)]))
        merged = surface[ord(a)] + surface[ord(b)]
        tokens[merged] = len(tokens)
        new = char_of.get(merged)
        if new is None:
            new = char_of[merged] = chr(len(surface))
            surface.append(merged)

        at = []
        i = stream.find(best)
        while i >= 0:
            at.append(i)
            i = stream.find(best, i + 2)
        lefts = Counter(stream[i - 1] for i in at)
        rights = Counter(stream[i + 2] for i in at)
        # where two occurrences touch, the pair between them is (b, a) before
        # and (new, new) after: count it once, as the left one of the second
        touching = sum(j - i == 2 for i, j in itertools.pairwise(at))
        rights[a] -= touching
        delta: Counter = Counter({best: -len(at), new + new: touching})
        for x, n in lefts.items():
            if x != _SEP:
                delta[x + a] -= n
                delta[x + new] += n - touching if x == b else n
        for y, n in rights.items():
            if y != _SEP:
                delta[b + y] -= n
                delta[new + y] += n
        stream = stream.replace(best, new)

        for pair, d in delta.items():
            c = counts.get(pair, 0) + d
            if c > 0:
                counts[pair] = c
                if d > 0 and c >= 2:
                    heapq.heappush(heap, key(pair, c))
            else:
                counts.pop(pair, None)
    return Vocab("bpe", tokens, merges=merges)


def _pop_best(heap: list, counts: dict, key, stream: str):
    """Pop the pair to merge next: the highest count of at least two, then the
    smallest concatenation, then the first occurrence in `stream`.

    An entry above its pair's current count is pushed again at that count if it
    is still at least two; an entry below it is a leftover, since the rise
    pushed a new one. Live entries that tie with the best on count and
    concatenation go back on the heap unless they occur first. Returns None
    when no pair occurs twice.
    """
    def live(entry) -> bool:
        count = counts.get(entry[2], 0)
        if count == -entry[0]:
            return True
        if 2 <= count < -entry[0]:
            heapq.heappush(heap, key(entry[2], count))  # sorts after `entry`
        return False

    while heap:
        top = heapq.heappop(heap)
        if live(top):
            break
    else:
        return None
    tied = {top[2]: top}
    while heap and heap[0][:2] == top[:2]:
        entry = heapq.heappop(heap)
        if live(entry):
            tied[entry[2]] = entry
    if len(tied) == 1:
        return top[2]
    best = min(tied, key=stream.find)
    for pair, entry in tied.items():
        if pair != best:
            heapq.heappush(heap, entry)
    return best


def bpe_encode(vocab: Vocab, sequence: str, max_len: int = 10**9) -> TokenSequence:
    """Merge replay; letters missing from the table map to UNK.

    Each letter becomes the character of its token id, then each merge in rank
    order is one `str.replace`, left to right without overlap. The code points
    of the result are the ids. This is BPE's lowest-rank-merge-first rule,
    since the vocab's construction check rules out every merge list on which
    the two differ.
    """
    if vocab.kind != "bpe":
        raise ConfigError(f"bpe_encode needs a bpe vocab, got '{vocab.kind}'")
    stream = sequence.translate(vocab._letters)
    for pair, merged in vocab._replay:
        stream = stream.replace(pair, merged)
    return _frame(list(map(ord, stream)), max_len)


def encode(vocab: Vocab, sequence: str, max_len: int = 10**9) -> TokenSequence:
    """Dispatch to the encoder matching the vocab kind."""
    if vocab.kind == "char":
        return char_encode(vocab, sequence, max_len)
    if vocab.kind == "kmer":
        return kmer_encode(vocab, sequence, max_len)
    return bpe_encode(vocab, sequence, max_len)


def decode(vocab: Vocab, tokens: TokenSequence | list[int]) -> str:
    """Concatenate token surfaces, skipping specials; UNK decodes to 'N'."""
    ids = tokens.ids if isinstance(tokens, TokenSequence) else tokens
    parts = []
    for i in ids:
        if not 0 <= i < len(vocab):
            raise ConfigError(f"token id {i} out of range for vocab of size {len(vocab)}")
        if i == UNK:
            parts.append("N")
        elif i >= N_SPECIALS:
            parts.append(vocab.id_to_token[i])
    return "".join(parts)


def save_vocab(vocab: Vocab, path):
    """Text format: #KIND line, one line per token in id order, then #MERGES pairs."""
    with open(path, "w", encoding="ascii") as fh:
        if vocab.kind == "kmer":
            fh.write(f"#KIND kmer {vocab.kmer_k}\n")
        else:
            fh.write(f"#KIND {vocab.kind}\n")
        for tok in vocab.id_to_token:
            fh.write(tok + "\n")
        fh.write("#MERGES\n")
        for a, b in vocab.merges:
            fh.write(f"{a} {b}\n")


def load_vocab(path) -> Vocab:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte at offset {exc.start}", path=path) from None
    if not lines or not lines[0].startswith("#KIND"):
        raise ParseError("vocab file must start with a #KIND line", path=path, line=1)
    fields = lines[0].split()
    kind = fields[1] if len(fields) > 1 else ""
    kmer_k = None
    if kind == "kmer" and len(fields) == 3 and fields[2].isdigit() and int(fields[2]) >= 1:
        kmer_k = int(fields[2])
    elif kind not in ("char", "bpe") or len(fields) != 2:
        raise ParseError(
            f"bad kind line '{lines[0]}': expected '#KIND char', '#KIND bpe' or '#KIND kmer K' "
            "with K >= 1", path=path, line=1)
    try:
        merges_at = lines.index("#MERGES")
    except ValueError:
        raise ParseError("missing #MERGES marker", path=path) from None
    tokens = lines[1:merges_at]
    if tokens[:N_SPECIALS] != list(SPECIAL_NAMES):
        raise ParseError("specials must occupy ids 0..3", path=path, line=2)
    if len(set(tokens)) != len(tokens):
        raise ParseError("a token is listed twice", path=path)
    merges = []
    for off, ln in enumerate(lines[merges_at + 1:]):
        if not ln:
            continue
        parts = ln.split(" ")
        if len(parts) != 2:
            raise ParseError(f"bad merge line '{ln}'", path=path, line=merges_at + 2 + off)
        merges.append((parts[0], parts[1]))
    try:
        vocab = Vocab(kind, {tok: i for i, tok in enumerate(tokens)}, merges=merges,
                      kmer_k=kmer_k)
    except ConfigError as exc:
        raise ParseError(str(exc), path=path) from None
    if kind == "char" and tokens != char_vocab().id_to_token:
        raise ParseError("token table differs from the char vocabulary", path=path)
    # 4**k has 2k+1 bits, so the length check bounds k by the file's size
    # before a k-mer table is built
    elif kind == "kmer" and ((len(tokens) - N_SPECIALS).bit_length() != 2 * kmer_k + 1
                             or tokens != kmer_vocab(kmer_k).id_to_token):
        raise ParseError(f"token table differs from the {kmer_k}-mer vocabulary", path=path)
    return vocab

