from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from taxossm.errors import ConfigError, EmptyDatasetError, ParseError
from taxossm.records import IUPAC_ALPHABET, N_RANKS, BarcodeRecord, make_label
from taxossm.seqdata import (
    FilterConfig,
    SynthConfig,
    filter_dataset,
    length_bounds,
    overlap_report,
    parse_fasta,
    split_dataset,
    synth_generate,
    write_fasta,
)


def fasta(tmp_path, text, name="in.fasta"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# parsing


def test_parse_full_header(tmp_path):
    recs = parse_fasta(fasta(tmp_path, ">X1|k__Fungi;p__A;c__B;o__C;f__D;g__E;s__F\nACGT\n"))
    assert len(recs) == 1
    assert recs[0].id == "X1"
    assert recs[0].sequence == "ACGT"
    assert recs[0].label.ranks == ("Fungi", "A", "B", "C", "D", "E", "F")


def test_parse_partial_header_and_case_normalization(tmp_path):
    recs = parse_fasta(fasta(tmp_path, ">X2|k__Fungi;p__A\nacgtn\n"))
    assert recs[0].label.ranks == ("Fungi", "A", None, None, None, None, None)
    assert recs[0].sequence == "ACGTN"


def test_parse_rejects_non_iupac(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_fasta(fasta(tmp_path, ">X3|k__Fungi\nACGQ\n"))
    assert "Q" in str(err.value) and ":1" in str(err.value)


def test_parse_rejects_bad_rank_prefix(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_fasta(fasta(tmp_path, ">X|k__Fungi;c__B\nACGT\n"))
    assert "p__" in str(err.value)


def test_parse_empty_file_gives_empty_list(tmp_path):
    assert parse_fasta(fasta(tmp_path, "")) == []


def test_parse_multiline_sequence_and_order(tmp_path):
    text = ">a|k__K\nACGT\nACGT\n>b\nTTTT\n"
    recs = parse_fasta(fasta(tmp_path, text))
    assert [r.id for r in recs] == ["a", "b"]
    assert recs[0].sequence == "ACGTACGT"
    assert recs[1].label.depth == 0


def test_fasta_round_trip(tmp_path):
    records = [
        BarcodeRecord("r1", "ACGTACGT" * 12, make_label("K", "P", "C", "O", "F", "G", "S")),
        BarcodeRecord("r2", "ACGTN", make_label("K", "P")),
        BarcodeRecord("r3", "GGGG"),
    ]
    path = tmp_path / "round.fasta"
    write_fasta(records, path, width=16)
    assert parse_fasta(path) == records


# header fields: no ';' or '|', which separate them, no line breaks, and no
# whitespace at either end, which the parser strips
header_fields = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters=";|"),
    min_size=1, max_size=12).map(str.strip).filter(bool)


@st.composite
def fasta_records(draw):
    records = []
    for _ in range(draw(st.integers(0, 6))):
        depth = draw(st.integers(0, N_RANKS))
        names = draw(st.lists(header_fields, min_size=depth, max_size=depth))
        sequence = draw(st.text(sorted(IUPAC_ALPHABET), min_size=1, max_size=200))
        records.append(BarcodeRecord(draw(header_fields), sequence, make_label(*names)))
    return records


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=fasta_records(), width=st.integers(1, 100))
def test_fasta_write_parse_round_trip_for_any_records(tmp_path, records, width):
    path = tmp_path / "round.fasta"
    write_fasta(records, path, width=width)
    assert parse_fasta(path) == records


# ---------------------------------------------------------------------------
# filtering: brute-force oracle, fixture, invariants


def brute_force_filter(records, cfg):
    """Independent set-based reimplementation of the four filters."""
    seen, out = set(), []
    for r in records:
        key = (r.sequence, r.label.ranks)
        if key not in seen:
            seen.add(key)
            out.append(r)
    lens = [len(r.sequence) for r in out]
    mu = sum(lens) / len(lens)
    sd = (sum((l - mu) ** 2 for l in lens) / len(lens)) ** 0.5
    out = [r for r in out
           if mu - cfg.length_sigma * sd <= len(r.sequence) <= mu + cfg.length_sigma * sd]
    out = [r for r in out
           if sum(ch not in "ACGT" for ch in r.sequence) / len(r.sequence)
           <= cfg.max_ambiguous_fraction]
    while True:
        doomed = set()
        for rank in range(7):
            counts = Counter(r.label.ranks[rank] for r in out if r.label.ranks[rank])
            for r in out:
                name = r.label.ranks[rank]
                if name and counts[name] < cfg.min_class_size:
                    doomed.add(r.id)
        if not doomed:
            break
        out = [r for r in out if r.id not in doomed]
    return out


def ten_record_fixture():
    """Hand-built dataset exercising every filter step.

    length_sigma=2 (a lone outlier among ten records tops out near z=3, so the
    default 4 sigma could never fire here). Expected outcome, derived with the
    brute-force oracle and frozen:
      dup (one copy of r0) dropped at step 1; r6 (length 400) at step 2;
      r7 (10 Ns in 120bp) at step 3; r4+r5 (species sB, only 2 members) at step 4.
    """
    full = lambda sp: make_label("K", "P", "C", "O", "F", "g1", sp)
    seq = "ACGT" * 30  # 120 bp, starts "AC"
    records = [
        BarcodeRecord("r0", seq, full("sA")),
        BarcodeRecord("dup", seq, full("sA")),            # exact (sequence,label) duplicate
        BarcodeRecord("r2", "AG" + seq[2:], full("sA")),
        BarcodeRecord("r3", "AT" + seq[2:], full("sA")),
        BarcodeRecord("r4", "CA" + seq[2:], full("sB")),  # sB has just 2 members
        BarcodeRecord("r5", "CG" + seq[2:], full("sB")),
        BarcodeRecord("r6", "ACGT" * 100, make_label("K")),          # length outlier
        BarcodeRecord("r7", "N" * 10 + seq[10:], make_label("K")),   # 10/120 ambiguous
        BarcodeRecord("r8", "GA" + seq[2:], make_label("K")),
        BarcodeRecord("r9", "GC" + seq[2:], make_label("K")),
    ]
    cfg = FilterConfig(length_sigma=2.0, max_ambiguous_fraction=0.05, min_class_size=3)
    return records, cfg


def test_filter_fixture_matches_brute_force_oracle():
    records, cfg = ten_record_fixture()
    survivors, stats = filter_dataset(records, cfg)
    oracle = brute_force_filter(records, cfg)
    assert [r.id for r in survivors] == [r.id for r in oracle]
    # frozen from the oracle
    assert [r.id for r in survivors] == ["r0", "r2", "r3", "r8", "r9"]
    assert stats.duplicates_dropped == 1
    assert stats.length_dropped == 1
    assert stats.ambiguous_dropped == 1
    assert stats.small_class_dropped == 2
    assert stats.output_count == 5


def test_filter_matches_oracle_on_random_datasets(rng):
    for trial in range(20):
        cfg = SynthConfig(
            rank_fanouts=(1, 1, 1, 2, 2, 2, 2),
            base_length=60,
            length_jitter=int(rng.integers(0, 20)),
            samples_per_species=int(rng.integers(2, 6)),
            label_dropout_per_rank=(0, 0, 0, 0, 0.1, 0.1, 0.2),
            seed=int(rng.integers(0, 10**6)),
        )
        records = synth_generate(cfg)
        fcfg = FilterConfig(length_sigma=float(rng.uniform(1.5, 4.0)),
                            max_ambiguous_fraction=0.05,
                            min_class_size=int(rng.integers(1, 4)))
        try:
            survivors, _ = filter_dataset(records, fcfg)
        except EmptyDatasetError:
            assert brute_force_filter(records, fcfg) == []
            continue
        assert [r.id for r in survivors] == [r.id for r in brute_force_filter(records, fcfg)]


def test_filter_length_bounds_arithmetic():
    lo, hi = length_bounds(558.0, 126.2, 4.0)
    assert lo == pytest.approx(53.2, abs=1e-9)
    assert hi == pytest.approx(1062.8, abs=1e-9)


def test_filter_ambiguous_fraction_threshold():
    # 6 Ns in 100 bases is 6% > 5%: dropped at step 3
    good = [BarcodeRecord(f"g{i}", "ACGT" * 25, make_label("K")) for i in range(3)]
    bad = BarcodeRecord("bad", "N" * 6 + "ACGT" * 23 + "AC", make_label("K"))
    assert len(bad.sequence) == 100
    survivors, stats = filter_dataset(good + [bad], FilterConfig(min_class_size=1))
    assert stats.ambiguous_dropped == 1
    assert all(r.id != "bad" for r in survivors)


def test_filter_dedup_and_small_class_cascade():
    records, cfg = ten_record_fixture()
    # dedup removes one record; the 2-member species disappears at step 4
    survivors, _ = filter_dataset(records, cfg)
    ids = {r.id for r in survivors}
    assert "dup" not in ids and "r4" not in ids and "r5" not in ids


def test_filter_is_idempotent_on_realistic_data():
    for seed in range(5):
        records = synth_generate(SynthConfig(
            rank_fanouts=(1, 1, 2, 2, 2, 2, 2), base_length=80, length_jitter=10,
            samples_per_species=4, label_dropout_per_rank=(0, 0, 0, 0, 0, 0.1, 0.3),
            seed=seed))
        once, _ = filter_dataset(records)
        twice, stats = filter_dataset(once)
        assert twice == once
        assert stats.output_count == stats.input_count


def test_filter_fixed_point_class_sizes():
    records, cfg = ten_record_fixture()
    survivors, _ = filter_dataset(records, cfg)
    for rank in range(7):
        counts = Counter(r.label.ranks[rank] for r in survivors if r.label.ranks[rank])
        assert all(v >= cfg.min_class_size for v in counts.values())


@pytest.mark.parametrize("bad", [dict(length_sigma=0.0), dict(max_ambiguous_fraction=1.5),
                                 dict(min_class_size=0)], ids=lambda bad: next(iter(bad)))
def test_filter_config_rejects_out_of_range_values_when_built(bad):
    with pytest.raises(ConfigError, match=next(iter(bad))):
        FilterConfig(**bad)


def test_filter_empty_dataset_errors():
    with pytest.raises(EmptyDatasetError):
        filter_dataset([], FilterConfig())
    lonely = [BarcodeRecord("a", "ACGT", make_label("K", "P", "C", "O", "F", "G", "S"))]
    with pytest.raises(EmptyDatasetError):
        filter_dataset(lonely, FilterConfig(min_class_size=2))


# ---------------------------------------------------------------------------
# splitting


def _records(n):
    return [BarcodeRecord(f"r{i}", "ACGT" * (i + 1)) for i in range(n)]


def test_split_sizes_and_partition():
    tr, va, te = split_dataset(_records(10), (0.8, 0.1, 0.1), seed=7)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)
    ids = [r.id for r in tr + va + te]
    assert sorted(ids) == sorted(r.id for r in _records(10))
    assert len(set(ids)) == 10


def test_split_deterministic_under_seed():
    a = split_dataset(_records(20), (0.8, 0.1, 0.1), seed=7)
    b = split_dataset(_records(20), (0.8, 0.1, 0.1), seed=7)
    assert a == b
    c = split_dataset(_records(20), (0.8, 0.1, 0.1), seed=8)
    assert a != c


def test_split_rejects_bad_fractions():
    with pytest.raises(ConfigError):
        split_dataset(_records(4), (0.5, 0.5, 0.5), seed=0)


# ---------------------------------------------------------------------------
# overlap


def full_label(i):
    return make_label("K", "P", "C", "O", "F", "G", f"s{i}")


def test_overlap_identical_sets_is_100():
    recs = [BarcodeRecord(f"r{i}", "ACGT" * (i + 1), full_label(i)) for i in range(4)]
    rep = overlap_report(recs, recs)
    assert rep.species_overlap_pct == 100.0
    assert rep.barcode_overlap_pct == 100.0


def test_overlap_disjoint_sequences_is_0():
    train = [BarcodeRecord("a", "AAAA", full_label(0))]
    test = [BarcodeRecord("b", "CCCC", full_label(1))]
    rep = overlap_report(train, test)
    assert rep.species_overlap_pct == 0.0 and rep.barcode_overlap_pct == 0.0


def test_overlap_half_example():
    # train barcodes {s1,s2,s3}, test {s2,s3,s4,s5} -> n=2, 50%
    train = [BarcodeRecord(f"t{i}", seq) for i, seq in enumerate(["AAAA", "CCCC", "GGGG"])]
    test = [BarcodeRecord(f"q{i}", seq)
            for i, seq in enumerate(["CCCC", "GGGG", "TTTT", "ACGT"])]
    rep = overlap_report(train, test)
    assert rep.barcode_overlap_n == 2
    assert rep.barcode_overlap_pct == 50.0


def test_overlap_partial_labels_excluded_from_species_tally():
    train = [BarcodeRecord("a", "AAAA", full_label(0))]
    test = [BarcodeRecord("b", "AAAA", make_label("K", "P"))]
    rep = overlap_report(train, test)
    assert rep.species_total_test == 0 and rep.species_overlap_pct == 0.0
    assert rep.barcode_overlap_pct == 100.0


def test_overlap_serializes_with_exact_field_names():
    rep = overlap_report([], [])
    payload = rep.to_json()
    for field in ("species_total_test", "species_overlap_n", "species_overlap_pct",
                  "barcode_total_test", "barcode_overlap_n", "barcode_overlap_pct"):
        assert f'"{field}"' in payload


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_counts():
    cfg = SynthConfig(rank_fanouts=(1, 1, 1, 1, 1, 2, 2), samples_per_species=3,
                      base_length=30, length_jitter=0, seed=0)
    records = synth_generate(cfg)
    assert len(records) == 12
    assert len({r.label.ranks[6] for r in records}) == 4


def test_synth_zero_noise_gives_identical_copies():
    cfg = SynthConfig(rank_fanouts=(1, 1, 1, 1, 1, 2, 2), samples_per_species=3,
                      base_length=30, length_jitter=0,
                      mutation_rate_per_rank=(0,) * 7, seed=0)
    records = synth_generate(cfg)
    by_species = {}
    for r in records:
        by_species.setdefault(r.label.ranks[6], set()).add(r.sequence)
    assert all(len(seqs) == 1 for seqs in by_species.values())


def test_synth_species_dropout():
    cfg = SynthConfig(rank_fanouts=(1, 1, 1, 1, 1, 2, 2), samples_per_species=3,
                      base_length=30, label_dropout_per_rank=(0, 0, 0, 0, 0, 0, 1.0), seed=0)
    records = synth_generate(cfg)
    assert all(r.label.ranks[6] is None for r in records)
    assert all(r.label.ranks[5] is not None for r in records)


def test_synth_deterministic():
    cfg = SynthConfig(seed=42)
    assert synth_generate(cfg) == synth_generate(cfg)


def test_synth_fanout_cap():
    with pytest.raises(ConfigError):
        SynthConfig(rank_fanouts=(10, 10, 10, 10, 10, 10, 10))


def test_synth_labels_are_prefix_closed():
    cfg = SynthConfig(label_dropout_per_rank=(0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1), seed=3)
    assert all(r.label.is_prefix_closed for r in synth_generate(cfg))
