import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from taxossm.errors import ConfigError, ContractError, DegenerateVarianceError
from taxossm.evaluation import (
    LOW_CONFIDENCE,
    RankMetrics,
    TimingResult,
    _code_points,
    _pack_windows,
    besthit_similarity,
    besthit_train,
    betainc_regularized,
    evaluate,
    paired_t_test,
    predict_dataset,
)
from taxossm.records import BarcodeRecord, N_RANKS, make_label
from taxossm.taxonomy import LIFT_MODES, build_taxonomy

from target_oracle import reference_lift_species_probs


def labelled_records(names_per_record):
    """Records labelled at every rank with f"{rank}{name}" so classes are distinct."""
    records = []
    for i, name in enumerate(names_per_record):
        records.append(BarcodeRecord(
            f"r{i}", "ACGT",
            make_label(*[f"{r}_{name}" if r == 6 else f"lvl{r}" for r in range(7)])))
    return records


# ---------------------------------------------------------------------------
# evaluate


def two_class_setup():
    train = labelled_records(["A", "A", "B", "B"])
    taxo = build_taxonomy(train)
    labels = [r.label for r in train]
    a = taxo.index_per_rank[6]["6_A"]
    b = taxo.index_per_rank[6]["6_B"]
    return taxo, labels, a, b


def test_evaluate_all_correct_is_one():
    taxo, labels, a, b = two_class_setup()
    preds = np.zeros((4, N_RANKS), dtype=np.int64)
    preds[:, 6] = [a, a, b, b]
    report = evaluate(preds, labels, taxo)
    for m in report.per_rank:
        assert m.micro_accuracy == 1.0
        assert m.macro_precision == 1.0
        assert m.macro_recall == 1.0


def test_evaluate_worked_confusion_example():
    # truths (A,A,B,B), predictions (A,B,B,B)
    taxo, labels, a, b = two_class_setup()
    preds = np.zeros((4, N_RANKS), dtype=np.int64)
    preds[:, 6] = [a, b, b, b]
    m = evaluate(preds, labels, taxo).per_rank[6]
    assert abs(m.micro_accuracy - 0.75) < 1e-12
    assert abs(m.macro_precision - 5 / 6) < 1e-12
    assert abs(m.macro_recall - 3 / 4) < 1e-12
    assert m.support == 4 and m.excluded_unseen == 0


def test_evaluate_excludes_unseen_classes():
    taxo, labels, a, b = two_class_setup()
    unseen = labelled_records(["Z"])[0]
    preds = np.zeros((5, N_RANKS), dtype=np.int64)
    preds[:4, 6] = [a, a, b, b]
    m = evaluate(preds, labels + [unseen.label], taxo).per_rank[6]
    assert m.excluded_unseen == 1
    assert m.support == 4
    assert m.micro_accuracy == 1.0


def test_evaluate_skips_unlabelled_ranks():
    taxo, labels, a, b = two_class_setup()
    partial = BarcodeRecord("p", "ACGT", make_label("lvl0"))
    preds = np.zeros((5, N_RANKS), dtype=np.int64)
    preds[:4, 6] = [a, a, b, b]
    report = evaluate(preds, labels + [partial.label], taxo)
    assert report.per_rank[6].support == 4          # partial not counted at species
    assert report.per_rank[0].support == 5          # but counted at kingdom


def test_evaluate_alignment_mismatch_is_contract_error():
    taxo, labels, _, _ = two_class_setup()
    with pytest.raises(ContractError):
        evaluate(np.zeros((2, N_RANKS), dtype=np.int64), labels, taxo)


def brute_force_rank_metrics(truths, preds):
    """Independent confusion-matrix computation for one rank."""
    support = len(truths)
    correct = sum(1 for t, p in zip(truths, preds) if t == p)
    classes = sorted(set(truths))
    precisions, recalls = [], []
    for c in classes:
        tp = sum(1 for t, p in zip(truths, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(truths, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(truths, preds) if t == c and p != c)
        precisions.append(tp / (tp + fp) if tp + fp else 0.0)
        recalls.append(tp / (tp + fn))
    return correct / support, sum(precisions) / len(classes), sum(recalls) / len(classes)


def test_evaluate_matches_brute_force_on_200_random_cases(rng):
    for case in range(200):
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(2, 30))
        names = [f"c{rng.integers(0, n_classes)}" for _ in range(n)]
        train = labelled_records([f"{i}" for i in range(n_classes)])
        taxo = build_taxonomy(train)
        labels = [make_label(*[f"lvl{r}" if r < 6 else f"6_{name[1:]}" for r in range(7)])
                  for name in names]
        truths = [taxo.index_per_rank[6][f"6_{name[1:]}"] for name in names]
        preds = np.zeros((n, N_RANKS), dtype=np.int64)
        preds[:, 6] = rng.integers(0, n_classes, size=n)
        m = evaluate(preds, labels, taxo).per_rank[6]
        acc, prec, rec = brute_force_rank_metrics(truths, list(preds[:, 6]))
        assert m.micro_accuracy == acc
        assert abs(m.macro_precision - prec) < 1e-12
        assert abs(m.macro_recall - rec) < 1e-12


def loop_rank_metrics(predictions, labels, taxonomy_train):
    """Per-rank metrics by scanning every record once per class (the reference for evaluate)."""
    report = []
    for r in range(N_RANKS):
        truths = []
        preds = []
        excluded = 0
        for i, label in enumerate(labels):
            name = label.ranks[r]
            if name is None:
                continue
            idx = taxonomy_train.index_per_rank[r].get(name)
            if idx is None:
                excluded += 1
                continue
            truths.append(idx)
            preds.append(int(predictions[i, r]))
        support = len(truths)
        if support == 0:
            report.append(RankMetrics(0.0, 0.0, 0.0, 0, excluded))
            continue
        truths_arr = np.asarray(truths)
        preds_arr = np.asarray(preds)
        correct = int((truths_arr == preds_arr).sum())
        precisions = []
        recalls = []
        for c in sorted(set(truths)):
            tp = int(((preds_arr == c) & (truths_arr == c)).sum())
            pred_pos = int((preds_arr == c).sum())
            true_pos = int((truths_arr == c).sum())
            precisions.append(tp / pred_pos if pred_pos else 0.0)
            recalls.append(tp / true_pos)
        report.append(RankMetrics(correct / support, float(np.mean(precisions)),
                                  float(np.mean(recalls)), support, excluded))
    return report


def test_evaluate_equals_per_class_loop_on_random_cases(rng):
    fanouts = (1, 2, 2, 2, 2, 3, 3)

    def label_of(path, depth):
        return make_label(*[f"{r}_{'_'.join(map(str, path[:r + 1]))}" for r in range(depth)])

    missed_true_classes = 0
    for _ in range(300):
        # labels come from 40 lineages, the training taxonomy from a prefix of
        # them (so some are unseen), and labels stop at a random depth
        paths = [tuple(int(rng.integers(0, f)) for f in fanouts) for _ in range(40)]
        taxo = build_taxonomy([BarcodeRecord(f"t{i}", "ACGT", label_of(p, N_RANKS))
                               for i, p in enumerate(paths[:int(rng.integers(1, 40))])])
        n = int(rng.integers(1, 60))
        labels = [label_of(paths[int(rng.integers(0, 40))], int(rng.integers(0, N_RANKS + 1)))
                  for _ in range(n)]
        preds = np.zeros((n, N_RANKS), dtype=np.int64)
        for r in range(N_RANKS):
            # predictions drawn from a few classes leave other true classes unpredicted
            pool = rng.integers(0, taxo.n_classes(r), size=int(rng.integers(1, 4)))
            preds[:, r] = rng.choice(pool, size=n)
            truths = {taxo.index_per_rank[r].get(lab.ranks[r]) for lab in labels} - {None}
            missed_true_classes += len(truths - set(preds[:, r].tolist()))
        assert evaluate(preds, labels, taxo).per_rank == loop_rank_metrics(preds, labels, taxo)
    assert missed_true_classes > 0


def test_evaluate_rejects_predictions_outside_the_taxonomy():
    taxo, labels, a, b = two_class_setup()
    for bad in (-1, 2):
        preds = np.zeros((4, N_RANKS), dtype=np.int64)
        preds[0, 6] = bad
        with pytest.raises(ContractError):
            evaluate(preds, labels, taxo)


def test_evaluate_micro_accuracy_invariant_under_relabeling(rng):
    taxo, labels, a, b = two_class_setup()
    preds = np.zeros((4, N_RANKS), dtype=np.int64)
    preds[:, 6] = [a, b, a, b]
    base = evaluate(preds, labels, taxo).per_rank[6].micro_accuracy
    # apply the swap a<->b consistently to both truths and predictions
    swapped_labels = [make_label(*l.ranks[:6], {"6_A": "6_B", "6_B": "6_A"}[l.ranks[6]])
                      for l in labels]
    swapped_preds = preds.copy()
    swapped_preds[:, 6] = [{a: b, b: a}[int(p)] for p in preds[:, 6]]
    assert evaluate(swapped_preds, swapped_labels, taxo).per_rank[6].micro_accuracy == base


def test_metrics_report_serialization():
    taxo, labels, a, b = two_class_setup()
    preds = np.zeros((4, N_RANKS), dtype=np.int64)
    preds[:, 6] = [a, a, b, b]
    report = evaluate(preds, labels, taxo)
    tsv = report.to_tsv()
    assert tsv.splitlines()[0].split("\t") == [
        "rank", "micro_accuracy", "macro_precision", "macro_recall",
        "support", "excluded_unseen"]
    assert len(tsv.splitlines()) == 8
    assert '"species"' in report.to_json()


# ---------------------------------------------------------------------------
# paired t-test and the incomplete beta


def test_paired_t_test_worked_example():
    result = paired_t_test([1.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    assert abs(result.t_statistic - 4.0) < 1e-12
    assert result.degrees_of_freedom == 2
    assert abs(result.p_value_two_sided - 0.0572) < 1e-3


def test_paired_t_test_antisymmetry(rng):
    a = rng.normal(size=8)
    b = a + rng.normal(size=8) * 0.5
    fwd = paired_t_test(a, b)
    rev = paired_t_test(b, a)
    assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
    assert fwd.p_value_two_sided == pytest.approx(rev.p_value_two_sided, abs=1e-12)


def test_paired_t_test_zero_variance_errors():
    with pytest.raises(DegenerateVarianceError):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateVarianceError):
        paired_t_test([2.0, 3.0], [1.0, 2.0])  # constant difference


def test_paired_t_test_input_validation():
    with pytest.raises(ConfigError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ConfigError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


def test_paired_t_test_matches_scipy_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(2, 20))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if np.std(a - b, ddof=1) == 0:
            continue
        ours = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert ours.t_statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert ours.p_value_two_sided == pytest.approx(ref.pvalue, rel=1e-8)


def test_betainc_matches_scipy_oracle(rng):
    import scipy.special
    for _ in range(200):
        a = float(rng.uniform(0.1, 20))
        b = float(rng.uniform(0.1, 20))
        x = float(rng.uniform(0, 1))
        assert betainc_regularized(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-10)
    assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.0) == 1.0


# ---------------------------------------------------------------------------
# best-hit baseline


def besthit_fixture():
    seqs = ["ACGTACGTACGT", "TTTTAAAACCCC", "GGGGCCCCTTTT", "ACACACACACAC", "GTGTGTGTGTGT"]
    records = [BarcodeRecord(f"r{i}", s,
                             make_label("k", "p", "c", "o", "f", f"g{i}", f"s{i}"))
               for i, s in enumerate(seqs)]
    return records, besthit_train(records, k=4)


def test_besthit_exact_query_returns_its_label():
    records, index = besthit_fixture()
    for rec in records:
        best, sim = besthit_similarity(index, rec.sequence)
        assert index.labels[best] == rec.label and sim == 1.0


def test_besthit_no_shared_kmers_ties_to_first_index():
    records, index = besthit_fixture()
    idx, sim = besthit_similarity(index, "NNNNNNNN")
    assert idx == 0 and sim == 0.0
    assert sim < LOW_CONFIDENCE


def test_besthit_query_shorter_than_k_errors():
    _, index = besthit_fixture()
    with pytest.raises(ConfigError):
        besthit_similarity(index, "ACG")
    with pytest.raises(ConfigError):
        besthit_train([], k=0)


def brute_force_best_hit(records, query, k):
    def multiset(s):
        out = {}
        for i in range(len(s) - k + 1):
            out[s[i:i + k]] = out.get(s[i:i + k], 0) + 1
        return out

    q = multiset(query)
    q_total = sum(q.values())
    best, best_sim = 0, -1.0
    for i, rec in enumerate(records):
        ref = multiset(rec.sequence)
        inter = sum(min(cnt, ref.get(kmer, 0)) for kmer, cnt in q.items())
        sim = inter / q_total
        if sim > best_sim:
            best, best_sim = i, sim
    return best, best_sim


def test_besthit_matches_exhaustive_scan_on_mutated_queries(rng):
    records, index = besthit_fixture()
    bases = np.array(list("ACGT"))
    for _ in range(50):
        src = records[int(rng.integers(0, len(records)))].sequence
        arr = np.array(list(src))
        hits = rng.random(len(arr)) < 0.2
        arr[hits] = bases[rng.integers(0, 4, size=int(hits.sum()))]
        query = "".join(arr)
        got_i, got_sim = besthit_similarity(index, query)
        exp_i, exp_sim = brute_force_best_hit(records, query, 4)
        assert got_i == exp_i
        assert got_sim == pytest.approx(exp_sim, abs=1e-12)


def test_besthit_similarity_one_iff_contained():
    records, index = besthit_fixture()
    # a substring's k-mer multiset is contained in the source sequence's multiset
    _, sim = besthit_similarity(index, records[1].sequence[2:10])
    assert sim == 1.0
    # one foreign base breaks containment against every reference
    _, sim = besthit_similarity(index, records[1].sequence[:8] + "G" + "T")
    assert sim < 1.0


IUPAC_LETTERS = "ACGTRYSWKMBDHVN"
FOREIGN_LETTERS = "XZ*u"  # never drawn for a reference


def packing_limit(references):
    """Largest k whose packed code fits in 64 bits for these references' letters."""
    bits = (len(set("".join(references))) - 1).bit_length()
    return 64 // bits if bits else 64


@st.composite
def besthit_cases(draw):
    letters = "".join(draw(st.lists(st.sampled_from(IUPAC_LETTERS + "acgtn"),
                                    min_size=1, unique=True)))
    seqs = draw(st.lists(st.text(letters, max_size=40), min_size=1, max_size=6))
    seqs += draw(st.lists(st.sampled_from(seqs), max_size=3))  # duplicates tie
    seqs = draw(st.permutations(seqs))
    k = draw(st.integers(1, packing_limit(seqs)))
    # a mutated copy of a reference, padded with any letters up to length k
    query = list(draw(st.sampled_from(seqs)))
    for _ in range(draw(st.integers(0, 4))):
        if query:
            query[draw(st.integers(0, len(query) - 1))] = draw(
                st.sampled_from(letters + FOREIGN_LETTERS))
    query = "".join(query)
    query += draw(st.text(letters + FOREIGN_LETTERS, min_size=max(k - len(query), 0),
                          max_size=max(k - len(query), 0) + 8))
    return seqs, k, query


@settings(max_examples=300, deadline=None)
@given(besthit_cases())
def test_besthit_index_matches_brute_force_oracle(case):
    seqs, k, query = case
    records = [BarcodeRecord(f"r{i}", s) for i, s in enumerate(seqs)]
    index = besthit_train(records, k=k)
    assert besthit_similarity(index, query) == brute_force_best_hit(records, query, k)


def per_letter_windows(ranks, k, bits):
    n = max(ranks.size - k + 1, 0)
    codes = np.zeros(n, dtype=np.uint64)
    for j in range(k):
        codes <<= np.uint64(bits)
        codes |= ranks[j:j + n]
    return codes


def unique_twice_postings(records, k):
    """(codes, ref_ids, counts) of an index built by ranking the distinct k-mers
    with one np.unique and counting the (rank, reference) pairs with another."""
    alphabet = np.unique(_code_points("".join(r.sequence for r in records)))
    bits = (alphabet.size - 1).bit_length()
    codes, owners = [], []
    for i, rec in enumerate(records):
        ranks = np.searchsorted(alphabet, _code_points(rec.sequence)).astype(np.uint64)
        window_codes = per_letter_windows(ranks, k, bits)
        codes.append(window_codes)
        owners.append(np.full(window_codes.size, i, dtype=np.int64))
    n_refs = len(records)
    distinct, pairs = np.unique(np.concatenate(codes), return_inverse=True)
    pairs = pairs * n_refs + np.concatenate(owners)
    pairs, counts = np.unique(pairs, return_counts=True)
    return distinct[pairs // n_refs], pairs % n_refs, counts


def assert_postings_match_the_unique_twice_build(records, k):
    index = besthit_train(records, k=k)
    codes, ref_ids, counts = unique_twice_postings(records, k)
    assert index.codes.dtype == np.uint64
    assert index.ref_ids.dtype == index.counts.dtype == np.int32
    assert np.array_equal(index.codes, codes)
    assert np.array_equal(index.ref_ids, ref_ids)
    assert np.array_equal(index.counts, counts)


@settings(max_examples=300, deadline=None)
@given(besthit_cases())
def test_besthit_postings_match_the_unique_twice_build(case):
    seqs, k, _ = case
    assert_postings_match_the_unique_twice_build(
        [BarcodeRecord(f"r{i}", s) for i, s in enumerate(seqs)], k)


@pytest.mark.parametrize("letters, k, n_refs", [
    ("ACGT", 32, 2), ("ACGT", 32, 5), ("ACGT", 31, 9), ("ACGTRYSWKMBDHVN", 16, 3),
    ("ACGTRYSWKMBDHVN", 15, 17),
], ids=["acgt_k32_2refs", "acgt_k32_5refs", "acgt_k31_9refs", "iupac_k16_3refs",
        "iupac_k15_17refs"])
def test_besthit_postings_when_the_kmers_are_ranked_first(rng, letters, k, n_refs):
    # k * bits + ceil(log2 n_refs) > 64 in every case, so the codes do not fit
    # beside the reference id and are ranked among the distinct k-mers first
    bits = (len(letters) - 1).bit_length()
    assert k * bits + (n_refs - 1).bit_length() > 64
    alphabet = np.array(list(letters))
    source = "".join(alphabet[rng.integers(0, len(letters), size=3 * k)])
    seqs = [source[:len(letters)] + letters]  # every letter present
    for _ in range(n_refs - 1):  # overlapping slices share k-mers across references
        start = int(rng.integers(0, k))
        seqs.append(source[start:start + int(rng.integers(k, 2 * k + 1))])
    seqs[-1] = seqs[-1] + seqs[-1][:k]  # a repeated k-mer counts twice
    records = [BarcodeRecord(f"r{i}", s) for i, s in enumerate(seqs)]
    assert_postings_match_the_unique_twice_build(records, k)
    index = besthit_train(records, k=k)
    assert index.counts.max() >= 2
    assert besthit_similarity(index, seqs[1]) == brute_force_best_hit(records, seqs[1], k)


@pytest.mark.parametrize("bits", [0, 1, 2, 3, 4])
def test_pack_windows_matches_the_per_letter_loop(rng, bits):
    for k in range(1, 34):
        for length in sorted({0, 1, k - 1, k, k + 1, 2 * k + 3, 70}):
            ranks = rng.integers(0, 1 << bits, size=length).astype(np.uint64)
            got = _pack_windows(ranks, k, bits)
            assert got.dtype == np.uint64
            assert np.array_equal(got, per_letter_windows(ranks, k, bits)), (k, length)


def test_besthit_k_above_packing_limit_errors():
    for letters, limit in (("ACGTRYSWKMBDHVN", 16), ("ACGT", 32)):
        records = [BarcodeRecord("r0", letters * 3)]
        besthit_train(records, k=limit)
        with pytest.raises(ConfigError) as err:
            besthit_train(records, k=limit + 1)
        assert f"k = {limit + 1}" in str(err.value)
        assert f"{len(letters)} letters" in str(err.value)


# ---------------------------------------------------------------------------
# inference timing


def test_predict_dataset_times_all_but_the_warmup_batch():
    from taxossm import ssm
    from taxossm.tokenizers import char_vocab
    vocab = char_vocab()
    records = labelled_records("abcdeabcde")
    taxonomy = build_taxonomy(records)
    cfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=8, n_blocks=1, head_dim=4,
                          d_state=4, max_len=16)
    state = ssm.init_model(cfg, seed=0)
    ssm.add_classification_heads(state, taxonomy.class_counts(), seed=0)
    preds, confs, result = predict_dataset(state, vocab, taxonomy, records, batch_size=4)
    assert preds.shape == confs.shape == (10, N_RANKS)
    assert isinstance(result, TimingResult)
    assert result.samples_timed == 6          # 10 minus the 4 in the warm-up batch
    assert result.batches_timed == 2
    assert result.ms_per_sample > 0.0
    assert predict_dataset(state, vocab, taxonomy, records[:3], batch_size=4)[2] is None


# ---------------------------------------------------------------------------
# single-head prediction


def _species_probs(state, vocab, records, batch_size):
    """Each record's species softmax in f64, renormalised, batch by batch."""
    from taxossm import numcore as nc, ssm
    from taxossm.tokenizers import encode
    from taxossm.train import pad_batch
    out = []
    for start in range(0, len(records), batch_size):
        ids, mask = pad_batch([encode(vocab, r.sequence, state.config.max_len).ids
                               for r in records[start:start + batch_size]])
        with nc.no_grad():
            logits = ssm.classify(state, ssm.model_forward(state, ids, mask), mask)
        probs = nc.softmax(logits[0], axis=-1).data.astype(np.float64)
        out.extend(probs / probs.sum(axis=-1, keepdims=True))
    return out


@pytest.mark.parametrize("lift_mode", LIFT_MODES)
@pytest.mark.parametrize("batch_size", [1, 7])
def test_single_head_predictions_are_the_lifted_species_softmax(rng, lift_mode, batch_size):
    from taxossm import ssm
    from taxossm.tokenizers import char_vocab
    records = [BarcodeRecord(f"r{i}", "".join(rng.choice(list("ACGT"), rng.integers(6, 30))),
                             make_label("K", "P", "C", "O", f"F{i % 2}", f"G{i % 4}",
                                        f"S{i % 8}"))
               for i in range(16)]
    taxonomy = build_taxonomy(records)
    vocab = char_vocab()
    state = ssm.init_model(ssm.ModelConfig(vocab_size=len(vocab), d_model=8, n_blocks=1,
                                           head_dim=4, d_state=4, max_len=40,
                                           head_mode="single"), seed=0)
    ssm.add_classification_heads(state, taxonomy.class_counts(), seed=1)
    head = state.params[f"heads.{N_RANKS - 1}.w"].data
    head[...] = rng.normal(0.0, 3.0, head.shape)  # so the records' predictions differ
    preds, confs, _ = predict_dataset(state, vocab, taxonomy, records, batch_size=batch_size,
                                      lift_mode=lift_mode)
    assert preds.shape == confs.shape == (len(records), N_RANKS)
    assert len(set(preds[:, -1])) > 1
    for i, probs in enumerate(_species_probs(state, vocab, records, batch_size)):
        lifted = reference_lift_species_probs(taxonomy, probs, mode=lift_mode)
        assert np.array_equal(preds[i], [p.argmax() for p in lifted])
        assert np.array_equal(confs[i], [p.max() for p in lifted])


# ---------------------------------------------------------------------------
# the paper's scale: 10^4 species


def test_ten_thousand_species_train_predict_and_evaluate_without_dense_class_arrays():
    # A dense species x genus float64 matrix alone takes 10^4 * 2,500 * 8 B = 191 MiB;
    # either bound below fails if a step or the lift builds one.
    import time
    import tracemalloc
    from taxossm import numcore as nc, ssm
    from taxossm.taxonomy import class_weights, smooth_target
    from taxossm.tokenizers import char_vocab, encode
    from taxossm.train import AdamW, pad_batch, weighted_cross_entropy
    from toydata import wide_records

    t0 = time.perf_counter()
    records = wide_records()
    taxonomy = build_taxonomy(records)
    weights = class_weights(taxonomy)
    vocab = char_vocab()
    picked = [records[i] for i in np.random.default_rng(0).choice(len(records), 64, replace=False)]
    ids, mask = pad_batch([encode(vocab, r.sequence, 16).ids for r in picked[:32]])
    targets = [smooth_target(taxonomy, r.label, "hierarchical", 0.1) for r in picked[:32]]
    for head_mode in ("multi", "single"):
        state = ssm.init_model(ssm.ModelConfig(vocab_size=len(vocab), d_model=8, n_blocks=1,
                                               head_dim=4, d_state=4, max_len=16,
                                               head_mode=head_mode), seed=0)
        ssm.add_classification_heads(state, taxonomy.class_counts(), seed=1)
        opt = AdamW(state.params, 1e-3, weight_decay=0.1, no_decay=state.norm_param_names)
        tracemalloc.start()
        try:  # one fine-tune step: weighted, hierarchically smoothed targets
            logits = ssm.classify(state, ssm.model_forward(state, ids, mask), mask)
            loss, _ = weighted_cross_entropy(logits, targets, weights, head_mode)
            nc.backward(loss)
            opt.step()
            _, step_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(float(loss.data))
        assert step_peak < 128 * 2**20, (head_mode, step_peak)
        for lift_mode in LIFT_MODES:
            tracemalloc.start()
            try:  # the head softmaxes (multi) or the batch lift of the species softmax
                preds, confs, _ = predict_dataset(state, vocab, taxonomy, picked,
                                                  batch_size=32, lift_mode=lift_mode)
                _, predict_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert predict_peak < 48 * 2**20, (head_mode, lift_mode, predict_peak)
            assert preds.shape == confs.shape == (64, N_RANKS)
            report = evaluate(preds, [r.label for r in picked], taxonomy)
            assert [m.support for m in report.per_rank] == [64] * N_RANKS
    assert time.perf_counter() - t0 < 10.0
