import heapq
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from taxossm.errors import ConfigError, ParseError
from taxossm.records import IUPAC_ALPHABET
from taxossm.seqdata import SynthConfig, synth_generate
from taxossm.tokenizers import (
    BOS,
    EOS,
    PAD,
    SPECIAL_NAMES,
    UNK,
    Vocab,
    _pop_best,
    bpe_encode,
    bpe_train,
    char_encode,
    char_vocab,
    decode,
    kmer_encode,
    kmer_vocab,
    load_vocab,
    save_vocab,
)

IUPAC_LETTERS = "".join(sorted(IUPAC_ALPHABET))


def ids_of(vocab, *tokens):
    return [vocab.token_to_id[t] for t in tokens]


# ---------------------------------------------------------------------------
# char and k-mer encoders


def test_char_encode_basic():
    v = char_vocab()
    out = char_encode(v, "ACGT")
    assert out.ids == [BOS] + ids_of(v, "A", "C", "G", "T") + [EOS]
    assert len(out) == 6


def test_char_encode_unk():
    v = char_vocab()
    assert char_encode(v, "ACNG").ids == [BOS, v.token_to_id["A"], v.token_to_id["C"],
                                          UNK, v.token_to_id["G"], EOS]


def test_char_encode_empty():
    assert char_encode(char_vocab(), "").ids == [BOS, EOS]


def test_kmer_encode_exact_division():
    v = kmer_vocab(3)
    assert kmer_encode(v, "ACGTAC").ids == [BOS] + ids_of(v, "ACG", "TAC") + [EOS]


def test_kmer_encode_drops_remainder():
    v = kmer_vocab(3)
    assert kmer_encode(v, "ACGTACG").ids == kmer_encode(v, "ACGTAC").ids


def test_kmer_encode_unk_window():
    v = kmer_vocab(3)
    assert kmer_encode(v, "ACNTAC").ids == [BOS, UNK, v.token_to_id["TAC"], EOS]


def test_specials_occupy_first_four_ids_everywhere():
    for v in (char_vocab(), kmer_vocab(2), bpe_train(["ACGTACGT"] * 3, 10)):
        assert (PAD, UNK, BOS, EOS) == (0, 1, 2, 3)
        assert v.id_to_token[:4] == ["<pad>", "<unk>", "<bos>", "<eos>"]
        assert sorted(v.token_to_id.values()) == list(range(len(v)))


def test_max_len_truncation():
    v = char_vocab()
    out = char_encode(v, "ACGT" * 10, max_len=5)
    assert len(out) == 5 and out.ids[0] == BOS and out.ids[-1] == EOS
    assert decode(v, out) == "ACG"
    assert char_encode(v, "ACGT", max_len=2).ids == [BOS, EOS]
    with pytest.raises(ConfigError):
        char_encode(v, "ACGT", max_len=1)


# ---------------------------------------------------------------------------
# BPE training against a brute-force oracle


def oracle_bpe_merges(corpus, vocab_size):
    """Independent BPE trainer: recounts every pair from scratch each step."""
    alphabet = sorted(set("".join(corpus)))
    tokens = list(alphabet)
    seqs = [list(s) for s in corpus]
    merges = []
    while len(tokens) + 4 < vocab_size:
        counts = {}
        for s in seqs:
            for i in range(len(s) - 1):
                counts[(s[i], s[i + 1])] = counts.get((s[i], s[i + 1]), 0) + 1
        if not counts:
            break
        best = None
        for pair, cnt in counts.items():
            key = (-cnt, pair[0] + pair[1])
            if best is None or key < best[0]:
                best = (key, pair)
        if counts[best[1]] < 2:
            break
        a, b = best[1]
        merges.append((a, b))
        tokens.append(a + b)
        for s in seqs:
            i = 0
            while i < len(s) - 1:
                if s[i] == a and s[i + 1] == b:
                    s[i:i + 2] = [a + b]
                else:
                    i += 1
    return merges


def test_bpe_train_worked_example():
    v = bpe_train(["AAAA", "AAAA"], 7)
    assert v.merges == [("A", "A"), ("AA", "AA")]
    assert v.merges == oracle_bpe_merges(["AAAA", "AAAA"], 7)
    assert len(v) == 7


def test_bpe_train_matches_oracle_on_random_corpora(rng):
    bases = np.array(list("ACGT"))
    for trial in range(15):
        corpus = ["".join(bases[rng.integers(0, 4, size=rng.integers(4, 40))])
                  for _ in range(int(rng.integers(2, 12)))]
        size = int(rng.integers(8, 40))
        assert bpe_train(corpus, size).merges == oracle_bpe_merges(corpus, size)


def test_bpe_train_zero_merge_boundary():
    v = bpe_train(["ACGT", "ACGT"], 8)  # 4 specials + 4 letters
    assert v.merges == []
    assert set(v.token_to_id) == {"<pad>", "<unk>", "<bos>", "<eos>", "A", "C", "G", "T"}


def test_bpe_train_stops_when_no_pair_repeats():
    v = bpe_train(["ACGT"], 100)
    assert v.merges == []


def test_bpe_train_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        bpe_train([], 10)
    with pytest.raises(ConfigError):
        bpe_train(["ACGT"], 7)  # below specials + alphabet


def test_bpe_train_deterministic():
    corpus = ["ACGTACGTAC", "GTACGTAACC", "ACACACGTGT"]
    runs = [bpe_train(corpus, 16).merges for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# BPE encoding


def test_bpe_encode_merge_replay():
    v = bpe_train(["AAAA", "AAAA", "ACAC"], 7)
    assert v.merges[0] == ("A", "A")
    out = bpe_encode(v, "AAAA")
    aa = v.token_to_id["AA"]
    assert out.ids == [BOS, aa, aa, EOS]


def test_bpe_encode_without_applicable_merges_matches_char_ids():
    v = bpe_train(["AAAA", "AAAA"], 6)  # alphabet {A}, one merge (A,A)
    out = bpe_encode(v, "CG")  # C and G unseen at training: residuals become UNK
    assert out.ids == [BOS, UNK, UNK, EOS]
    v2 = bpe_train(["ACGT", "ACGT"], 8)  # zero merges over full alphabet
    cv = char_vocab()
    assert decode(v2, bpe_encode(v2, "GATTACA")) == decode(cv, char_encode(cv, "GATTACA"))


def naive_replay_encode(vocab, sequence):
    """Apply each merge once in training order, a full left-to-right pass per merge."""
    symbols = list(sequence)
    for a, b in vocab.merges:
        out, i = [], 0
        while i < len(symbols):
            if i < len(symbols) - 1 and symbols[i] == a and symbols[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    return [BOS] + [vocab.token_to_id.get(s, UNK) for s in symbols] + [EOS]


def test_bpe_encode_equals_naive_in_order_replay(rng):
    bases = np.array(list("ACGT"))
    corpus = ["".join(bases[rng.integers(0, 4, size=30)]) for _ in range(8)]
    v = bpe_train(corpus, 24)
    for _ in range(200):
        s = "".join(bases[rng.integers(0, 4, size=rng.integers(0, 50))])
        assert bpe_encode(v, s).ids == naive_replay_encode(v, s)


def test_bpe_round_trip_1000_random_strings(rng):
    bases = np.array(list("ACGT"))
    corpus = ["".join(bases[rng.integers(0, 4, size=60)]) for _ in range(10)]
    v = bpe_train(corpus, 40)
    for _ in range(1000):
        s = "".join(bases[rng.integers(0, 4, size=rng.integers(1, 80))])
        assert decode(v, bpe_encode(v, s)) == s


def lowest_rank_encode(vocab, sequence):
    """Repeatedly apply the lowest-rank merge present, one left-to-right pass at a time."""
    rank = {pair: r for r, pair in enumerate(vocab.merges)}
    symbols = list(sequence)
    while True:
        present = [rank[p] for p in zip(symbols, symbols[1:]) if p in rank]
        if not present:
            break
        a, b = vocab.merges[min(present)]
        out, i = [], 0
        while i < len(symbols):
            if i < len(symbols) - 1 and symbols[i] == a and symbols[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    return [BOS] + [vocab.token_to_id.get(s, UNK) for s in symbols] + [EOS]


@st.composite
def barcode_text(draw, letters):
    """Random letters, long homopolymer runs and short repeated units."""
    pieces = draw(st.lists(st.one_of(
        st.text(letters, max_size=12),
        st.builds(lambda ch, n: ch * n, st.sampled_from(letters), st.integers(2, 16)),
        st.builds(lambda unit, n: unit * n, st.text(letters, min_size=1, max_size=3),
                  st.integers(2, 6)),
    ), max_size=4))
    return "".join(pieces)


@st.composite
def bpe_cases(draw):
    letters = "".join(draw(st.lists(st.sampled_from(IUPAC_LETTERS), min_size=1, max_size=5,
                                    unique=True)))
    corpus = draw(st.lists(barcode_text(letters), min_size=1, max_size=6))
    corpus += draw(st.lists(st.sampled_from(corpus), max_size=3))  # duplicate sequences
    corpus = draw(st.permutations(corpus))
    alphabet = set("".join(corpus))
    # the upper end lies past exhaustion: training stops once no pair repeats
    vocab_size = draw(st.integers(len(SPECIAL_NAMES) + len(alphabet),
                                  len(SPECIAL_NAMES) + len(alphabet) + sum(map(len, corpus))))
    queries = draw(st.lists(st.one_of(
        st.sampled_from(corpus),
        barcode_text(letters + "XZ"),        # letters the vocab lacks
    ), min_size=1, max_size=3))
    return corpus, vocab_size, queries


@settings(max_examples=300, deadline=None)
@given(bpe_cases())
def test_bpe_train_and_encode_match_oracles(case):
    corpus, vocab_size, queries = case
    v = bpe_train(corpus, vocab_size)
    assert v.merges == oracle_bpe_merges(corpus, vocab_size)
    assert v.id_to_token == (list(SPECIAL_NAMES) + sorted(set("".join(corpus)))
                             + [a + b for a, b in v.merges])
    for q in queries:
        assert bpe_encode(v, q).ids == naive_replay_encode(v, q)


@st.composite
def merge_lists(draw):
    """Merge lists over known tokens in any order that a vocab file may hold,
    including orders bpe_train would not produce: sorted letters, then merges
    of tokens made earlier, each making a new token."""
    letters = sorted(draw(st.lists(st.sampled_from("ACGT"), min_size=1, max_size=4,
                                   unique=True)))
    known = list(letters)
    merges = []
    for _ in range(draw(st.integers(0, 12))):
        pair = (draw(st.sampled_from(known)), draw(st.sampled_from(known)))
        if pair[0] + pair[1] not in known:
            merges.append(pair)
            known.append(pair[0] + pair[1])
    table = {tok: i for i, tok in enumerate(list(SPECIAL_NAMES) + known)}
    query = draw(barcode_text("".join(letters) + "N"))
    return Vocab("bpe", table, merges=merges), query


@settings(max_examples=300, deadline=None)
@given(merge_lists())
def test_bpe_encode_matches_lowest_rank_passes_for_any_merge_list(case):
    vocab, query = case
    assert bpe_encode(vocab, query).ids == lowest_rank_encode(vocab, query)


@pytest.mark.parametrize("tokens, merges", [
    (["A", "AA", "AAA"], [("A", "A"), ("A", "AA"), ("AA", "A")]),  # AAA made twice
    (["A", "C", "ACC", "CC"], [("A", "CC"), ("C", "C")]),         # CC made after its use
    (["A", "<unk>A"], [("<unk>", "A")]),                            # a special as a part
], ids=["repeated-token", "part-made-later", "special-part"])
def test_merge_lists_the_replay_would_misread_are_refused(tmp_path, tokens, merges):
    table = {tok: i for i, tok in enumerate(list(SPECIAL_NAMES) + tokens)}
    with pytest.raises(ConfigError):
        Vocab("bpe", table, merges=merges)
    path = tmp_path / "v.vocab"
    path.write_text("#KIND bpe\n" + "\n".join(table) + "\n#MERGES\n"
                    + "".join(f"{a} {b}\n" for a, b in merges))
    with pytest.raises(ParseError) as err:
        load_vocab(path)
    assert err.value.path == path


def test_bpe_on_synthetic_barcodes_matches_oracles():
    cfg = SynthConfig(rank_fanouts=(1, 1, 1, 1, 1, 2, 2), base_length=650, samples_per_species=3,
                      seed=0)
    corpus = [r.sequence for r in synth_generate(cfg)]
    assert len(corpus) == 12
    v = bpe_train(corpus, 128)
    assert len(v) == 128 and len(v.merges) == 120
    assert v.merges == oracle_bpe_merges(corpus, 128)
    for s in corpus[:4]:
        assert bpe_encode(v, s).ids == naive_replay_encode(v, s)


def test_pop_best_breaks_a_full_tie_by_first_occurrence():
    # token characters: A=1, B=2, AA=3, AB=4; ("A","AB") and ("AA","B") both
    # spell AAB twice, and ("AA","B") occurs first although it sorts last
    surface = ["", "A", "B", "AA", "AB"]
    a_ab, aa_b, b_a = "\x01\x04", "\x03\x02", "\x02\x01"
    counts = {a_ab: 2, aa_b: 2, b_a: 1}
    stream = "\0" + aa_b + "\0" + a_ab + "\0" + aa_b + a_ab + "\0"

    def key(pair, count):
        return (-count, surface[ord(pair[0])] + surface[ord(pair[1])], pair)

    heap = [key(a_ab, 2), key(aa_b, 2), key(b_a, 3)]  # (B, A) has fallen to 1
    heapq.heapify(heap)
    assert _pop_best(heap, counts, key, stream) == aa_b
    assert _pop_best(heap, counts, key, stream) == a_ab  # the loser went back
    assert _pop_best(heap, counts, key, stream) is None  # no pair occurs twice


def test_char_round_trip_1000_random_strings(rng):
    v = char_vocab()
    bases = np.array(list("ACGT"))
    for _ in range(1000):
        s = "".join(bases[rng.integers(0, 4, size=rng.integers(0, 64))])
        assert decode(v, char_encode(v, s)) == s


# ---------------------------------------------------------------------------
# decode


def test_decode_kmer_tokens():
    v = kmer_vocab(3)
    assert decode(v, [BOS, v.token_to_id["ACG"], v.token_to_id["TAC"], EOS]) == "ACGTAC"


def test_decode_specials_only():
    assert decode(char_vocab(), [BOS, EOS]) == ""


def test_decode_unk_becomes_n():
    v = char_vocab()
    assert decode(v, [BOS, v.token_to_id["A"], UNK, EOS]) == "AN"


def test_decode_rejects_out_of_range():
    with pytest.raises(ConfigError):
        decode(char_vocab(), [BOS, 999, EOS])


# ---------------------------------------------------------------------------
# documented k-mer frameshift weakness


def test_kmer_frameshift_sensitivity(rng):
    k = 6
    v = kmer_vocab(k)
    bases = np.array(list("ACGT"))
    for _ in range(25):
        L = int(rng.integers(30, 90))
        s = "".join(bases[rng.integers(0, 4, size=L)])
        orig = kmer_encode(v, s).ids[1:-1]
        shifted = kmer_encode(v, s[1:]).ids[1:-1]
        changed = sum(1 for a, b in zip(orig, shifted) if a != b) + abs(len(orig) - len(shifted))
        assert changed >= math.ceil((L - 1) / k) - 1


# ---------------------------------------------------------------------------
# serialization


def test_vocab_file_round_trip(tmp_path, rng):
    bases = np.array(list("ACGT"))
    corpus = ["".join(bases[rng.integers(0, 4, size=40)]) for _ in range(6)]
    for v in (char_vocab(), kmer_vocab(4), bpe_train(corpus, 20)):
        path = tmp_path / f"{v.kind}.vocab"
        save_vocab(v, path)
        back = load_vocab(path)
        assert back.kind == v.kind
        assert back.kmer_k == v.kmer_k
        assert back.token_to_id == v.token_to_id
        assert back.merges == v.merges


@st.composite
def vocabs(draw):
    kind = draw(st.sampled_from(("char", "kmer", "bpe")))
    if kind == "char":
        return char_vocab()
    if kind == "kmer":
        return kmer_vocab(draw(st.integers(1, 4)))
    corpus, vocab_size, _ = draw(bpe_cases())
    return bpe_train(corpus, vocab_size)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vocab=vocabs())
def test_vocab_save_load_round_trip_for_any_vocab(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    back = load_vocab(path)
    assert (back.kind, back.kmer_k, back.token_to_id, back.merges, back.id_to_token) == (
        vocab.kind, vocab.kmer_k, vocab.token_to_id, vocab.merges, vocab.id_to_token)


def test_vocab_load_rejects_corrupted_merges(tmp_path, rng):
    v = bpe_train(["ACGTACGT" * 3] * 4, 12)
    path = tmp_path / "v.vocab"
    save_vocab(v, path)
    lines = path.read_text().splitlines()
    lines[5], lines[6] = lines[6], lines[5]  # scramble token id order
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_vocab(path)


@pytest.mark.parametrize("kind_line", [
    "#KIND",
    "#KIND kmer",
    "#KIND kmer x",
    "#KIND kmer 0",
    "#KIND foo",
    "#KIND bpe extra",
])
def test_vocab_load_rejects_bad_kind_line(tmp_path, kind_line):
    path = tmp_path / "v.vocab"
    save_vocab(bpe_train(["ACGTACGT"] * 3, 10), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([kind_line] + lines[1:]) + "\n")
    with pytest.raises(ParseError) as err:
        load_vocab(path)
    assert err.value.path == path and err.value.line == 1


def test_vocab_load_rejects_non_ascii_bytes(tmp_path):
    path = tmp_path / "v.vocab"
    save_vocab(bpe_train(["ACGTACGT"] * 3, 10), path)
    path.write_bytes(path.read_bytes().replace(b"\nA\n", b"\n\xc3\x84\n"))
    with pytest.raises(ParseError) as err:
        load_vocab(path)
    assert err.value.path == path


def test_vocab_load_rejects_repeated_token(tmp_path):
    path = tmp_path / "v.vocab"
    save_vocab(kmer_vocab(2), path)
    lines = path.read_text().splitlines()
    lines[6] = lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_vocab(path)
    assert err.value.path == path


@pytest.mark.parametrize("vocab, old, new", [
    (kmer_vocab(2), "AA", "ZZ"),
    (char_vocab(), "T", "U"),
])
def test_vocab_load_rejects_edited_token_table(tmp_path, vocab, old, new):
    path = tmp_path / "v.vocab"
    save_vocab(vocab, path)
    lines = path.read_text().splitlines()
    lines[lines.index(old)] = new
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_vocab(path)
    assert err.value.path == path


@pytest.mark.parametrize("kind_line", ["#KIND kmer 3", "#KIND kmer 30", "#KIND kmer 1000000000"])
def test_vocab_load_rejects_kmer_size_that_disagrees_with_the_table(tmp_path, kind_line):
    path = tmp_path / "v.vocab"
    save_vocab(kmer_vocab(2), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([kind_line] + lines[1:]) + "\n")
    with pytest.raises(ParseError) as err:
        load_vocab(path)
    assert err.value.path == path
