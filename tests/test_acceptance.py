"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the per-criterion lines.
The two training experiments (criteria 9 and 10) dominate the runtime; the
whole suite stays within a few minutes on one desktop core.
"""
import time
from contextlib import contextmanager

import numpy as np

from taxossm import numcore as nc
from taxossm import ssm
from taxossm.evaluation import evaluate, paired_t_test, predict_dataset
from taxossm.numcore import Tensor
from taxossm.records import N_RANKS, make_label
from taxossm.seqdata import (
    SynthConfig,
    filter_dataset,
    length_bounds,
    overlap_report,
    split_dataset,
    synth_generate,
)
from taxossm.taxonomy import build_taxonomy, class_weights, smooth_target
from taxossm.tokenizers import bpe_encode, bpe_train, char_encode, char_vocab, decode
from taxossm.train import TrainConfig, finetune, pretrain, weighted_cross_entropy

from toydata import toy_records
from test_evaluation import brute_force_rank_metrics, labelled_records
from test_seqdata import brute_force_filter, ten_record_fixture
from test_ssm import (
    chunked_scan,
    dense_quadratic_scan,
    per_head,
    random_scan_inputs,
    sequential_scan,
    shared_scan,
)
from test_train import _assert_checkpoints_bitwise_equal


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:02d} FAIL  {description}")
        raise
    print(f"\n[acceptance] criterion {num:02d} PASS  {description}")


def test_c01_gradient_integrity():
    with criterion(1, "full-model gradient check, f64, batch 4, T 32, < 60 s"):
        started = time.monotonic()
        vocab = char_vocab()
        cfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=16, n_blocks=2,
                              head_dim=8, d_state=16, conv_kernel=4, max_len=64)
        state = ssm.init_model(cfg, seed=0).astype(np.float64)
        rng = np.random.default_rng(1)
        ids = rng.integers(4, len(vocab), size=(4, 32))
        ids[:, 0] = 2
        ids[:, -1] = 3
        mask = np.ones_like(ids, dtype=np.float64)
        targets = ids[:, 1:]
        onehot = np.zeros((4, 31, len(vocab)))
        onehot[np.arange(4)[:, None], np.arange(31)[None, :], targets] = 1.0
        tensors = [state.params[k] for k in sorted(state.params)]

        def lm_objective(_):
            hidden = ssm.model_forward(state, ids, mask)
            logp = nc.log_softmax(ssm.lm_logits(state, hidden)[:, :-1, :], axis=-1)
            return nc.neg(nc.tmean(nc.tsum(nc.mul(logp, Tensor(onehot)), axis=-1)))

        err = nc.grad_check(lm_objective, tensors, step=1e-5, max_coords=16,
                            rng=np.random.default_rng(0))
        elapsed = time.monotonic() - started
        assert err < 1e-5, f"max relative error {err:.3e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c02_scan_equivalence():
    with criterion(2, "chunked scan == sequential scan == dense oracle == package scan_op"):
        rng = np.random.default_rng(2)
        for trial in range(50):
            T = int(rng.integers(4, 65))
            x, delta, a, B, C, D = random_scan_inputs(
                rng, T=T, H=int(rng.integers(1, 4)), P=int(rng.integers(2, 6)),
                N=int(rng.integers(2, 10)), dtype=np.float32)
            y_seq = sequential_scan(x, delta, a, B, C, D)
            for cs in (1, 7, 16, T):
                y_ch = chunked_scan(x, delta, a, B, C, D, cs)
                dev = np.abs(y_ch - y_seq).max()
                assert dev < 1e-5, f"trial {trial} chunk {cs}: deviation {dev:.2e}"
            x64, delta64, a64, B64, C64, D64 = (
                v.astype(np.float64) for v in (x, delta, a, B, C, D))
            dense = dense_quadratic_scan(x64, delta64, a64, B64, C64, D64)
            dev = np.abs(y_seq - dense).max()
            assert dev < 1e-5, f"trial {trial}: dense oracle deviation {dev:.2e}"
            # the package kernel shares one B and C across heads: head 0's here
            H = x.shape[1]
            y_pkg = shared_scan(x, delta, a, B[:, 0], C[:, 0], D)
            dense = dense_quadratic_scan(x64, delta64, a64, per_head(B64[:, 0], H),
                                         per_head(C64[:, 0], H), D64)
            dev = np.abs(y_pkg - dense).max()
            assert dev < 1e-5, f"trial {trial}: package scan_op deviation {dev:.2e}"


def test_c03_causality():
    with criterion(3, "suffix perturbations never change earlier LM logits"):
        vocab = char_vocab()
        cfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=24, n_blocks=2,
                              head_dim=8, d_state=8, max_len=64)
        state = ssm.init_model(cfg, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = int(rng.integers(4, 24))
            ids = rng.integers(4, len(vocab), size=(1, T))
            mask = np.ones_like(ids, dtype=np.float64)
            base = ssm.lm_logits(state, ssm.model_forward(state, ids, mask)).data
            cut = int(rng.integers(1, T))
            bumped = ids.copy()
            bumped[:, cut:] = rng.integers(4, len(vocab), size=(1, T - cut))
            out = ssm.lm_logits(state, ssm.model_forward(state, bumped, mask)).data
            dev = np.abs(out[:, :cut] - base[:, :cut]).max()
            assert dev < 1e-6, f"causality leak {dev:.2e} at cut {cut}"


def test_c04_smoothing_correctness(toy_taxonomy):
    with criterion(4, "hierarchical smoothing values, normalization, eps=0 one-hot"):
        label = toy_records()[0].label
        tgt = smooth_target(toy_taxonomy, label, "hierarchical", 0.3)
        expected = np.array([0.7, 0.3 * 6 / 11, 0.3 * 5 / 11])
        assert np.abs(tgt.per_rank[6] - expected).max() < 1e-12

        checked = 0
        seed = 0
        rng = np.random.default_rng(4)
        while checked < 1000:
            fanouts = tuple(int(rng.integers(1, 3)) for _ in range(5)) + (
                int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            records = synth_generate(SynthConfig(
                rank_fanouts=fanouts, base_length=16, length_jitter=0,
                samples_per_species=2, seed=seed,
                label_dropout_per_rank=(0, 0, 0, 0.1, 0.1, 0.1, 0.2)))
            seed += 1
            taxo = build_taxonomy(records)
            for rec in records:
                if rec.label.depth == 0:
                    continue
                mode = ("standard", "hierarchical")[checked % 2]
                tgt = smooth_target(taxo, rec.label, mode, float(rng.uniform(0, 0.9)))
                for r in range(N_RANKS):
                    if tgt.mask[r]:
                        assert abs(tgt.per_rank[r].sum() - 1.0) < 1e-9
                checked += 1
                if checked >= 1000:
                    break

        base = smooth_target(toy_taxonomy, label, "none", 0.0)
        for mode in ("standard", "hierarchical"):
            z = smooth_target(toy_taxonomy, label, mode, 0.0)
            for r in range(N_RANKS):
                assert np.array_equal(z.per_rank[r], base.per_rank[r])


def test_c05_weighting_correctness():
    with criterion(5, "inverse-sqrt weights and the weighted loss worked example"):
        from taxossm.records import BarcodeRecord
        records = [
            BarcodeRecord("a", "ACGT", make_label("k0")),
            BarcodeRecord("b", "ACGT", make_label("k1")),
            BarcodeRecord("c", "ACGT", make_label("k1")),
            BarcodeRecord("d", "ACGT", make_label("k1")),
            BarcodeRecord("e", "ACGT", make_label("k1")),
        ]
        taxo = build_taxonomy(records)
        weights = class_weights(taxo)
        assert np.abs(weights.per_rank[0] - np.array([4 / 3, 2 / 3])).max() < 1e-12
        target = smooth_target(taxo, make_label("k0"), "none", 0.0)
        logits = [Tensor(np.zeros((1, 2), dtype=np.float64)) for _ in range(7)]
        loss, _ = weighted_cross_entropy(logits, [target], weights, "multi")
        assert abs(float(loss.data) - (4 / 3) * np.log(2.0)) < 1e-9


def test_c06_metrics_oracle():
    with criterion(6, "evaluate matches brute-force confusion matrices"):
        train = labelled_records(["A", "A", "B", "B"])
        taxo = build_taxonomy(train)
        a = taxo.index_per_rank[6]["6_A"]
        b = taxo.index_per_rank[6]["6_B"]
        preds = np.zeros((4, N_RANKS), dtype=np.int64)
        preds[:, 6] = [a, b, b, b]
        m = evaluate(preds, [r.label for r in train], taxo).per_rank[6]
        assert abs(m.micro_accuracy - 0.75) < 1e-12
        assert abs(m.macro_precision - 5 / 6) < 1e-12
        assert abs(m.macro_recall - 3 / 4) < 1e-12

        rng = np.random.default_rng(6)
        for _ in range(200):
            n_classes = int(rng.integers(2, 6))
            n = int(rng.integers(2, 30))
            train = labelled_records([str(i) for i in range(n_classes)])
            taxo = build_taxonomy(train)
            truth_idx = rng.integers(0, n_classes, size=n)
            labels = [make_label(*[f"lvl{r}" if r < 6 else f"6_{t}" for r in range(7)])
                      for t in truth_idx]
            idx_of = [taxo.index_per_rank[6][f"6_{i}"] for i in range(n_classes)]
            truths = [idx_of[t] for t in truth_idx]
            preds = np.zeros((n, N_RANKS), dtype=np.int64)
            preds[:, 6] = rng.integers(0, n_classes, size=n)
            m = evaluate(preds, labels, taxo).per_rank[6]
            acc, prec, rec = brute_force_rank_metrics(truths, list(preds[:, 6]))
            assert m.micro_accuracy == acc
            assert abs(m.macro_precision - prec) < 1e-12
            assert abs(m.macro_recall - rec) < 1e-12


def test_c07_statistics():
    with criterion(7, "paired t-test worked example (t=4, df=2, p~0.0572)"):
        result = paired_t_test([1.0, 2.0, 4.0], [0.0, 1.0, 2.0])
        assert abs(result.t_statistic - 4.0) < 1e-12
        assert result.degrees_of_freedom == 2
        assert abs(result.p_value_two_sided - 0.0572) < 1e-3


def test_c08_preprocessing():
    with criterion(8, "filter fixture matches the brute-force oracle; length bounds"):
        records, cfg = ten_record_fixture()
        survivors, _ = filter_dataset(records, cfg)
        oracle = brute_force_filter(records, cfg)
        assert [r.id for r in survivors] == [r.id for r in oracle]
        lo, hi = length_bounds(558.0, 126.2, 4.0)
        assert abs(lo - 53.2) < 1e-9
        assert abs(hi - 1062.8) < 1e-9


def test_c09_overfit_smoke(tmp_path):
    with criterion(9, "100% species train accuracy on 64 records within 300 steps, < 2 min"):
        started = time.monotonic()
        records = synth_generate(SynthConfig(
            rank_fanouts=(1, 1, 1, 1, 2, 4, 1), base_length=48, length_jitter=2,
            mutation_rate_per_rank=(0, 0.1, 0.1, 0.1, 0.15, 0.2, 0.0),
            samples_per_species=8, seed=9))
        assert len(records) == 64
        vocab = bpe_train([r.sequence for r in records], 128)
        taxo = build_taxonomy(records)
        mcfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=64, n_blocks=2,
                               head_dim=16, d_state=16, conv_kernel=4, max_len=64)
        cfg = TrainConfig(stage="scratch", lr=5e-3, max_epochs=75, batch_size=16,
                          seed=0, patience=75, weighted_loss=False,
                          smoothing_mode="none", epsilon=0.0)
        ckpt = finetune(records, records, taxo, vocab, cfg, tmp_path / "c9",
                        model_cfg=mcfg)
        assert ckpt.manifest["adam_step"] <= 300
        state = ckpt.load_model()
        preds, _, _ = predict_dataset(state, vocab, taxo, records, batch_size=16)
        report = evaluate(preds, [r.label for r in records], taxo)
        elapsed = time.monotonic() - started
        assert report.per_rank[6].micro_accuracy == 1.0, (
            f"species accuracy {report.per_rank[6].micro_accuracy:.3f}")
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_c10_pretraining_utility(tmp_path):
    with criterion(10, "finetune-from-pretrain >= scratch in >= 4 of 5 seeds, < 30 min"):
        started = time.monotonic()
        records = synth_generate(SynthConfig(
            rank_fanouts=(1, 1, 1, 1, 2, 2, 3), base_length=64, length_jitter=4,
            mutation_rate_per_rank=(0, 0.12, 0.1, 0.08, 0.08, 0.06, 0.06),
            samples_per_species=168,
            label_dropout_per_rank=(0.9, 0, 0, 0, 0, 0, 0), seed=123))
        assert len(records) == 2016
        train_recs, val_recs, _ = split_dataset(records, (0.7, 0.2, 0.1), seed=123)
        train_lab = [r for r in train_recs if r.label.depth == N_RANKS]
        val_lab = [r for r in val_recs if r.label.depth == N_RANKS]
        labelled_fraction = (len(train_lab) + len(val_lab)) / (len(train_recs) + len(val_recs))
        assert 0.05 < labelled_fraction < 0.15

        vocab = bpe_train([r.sequence for r in train_recs], 64)
        taxo = build_taxonomy(train_lab)
        mcfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=32, n_blocks=2,
                               head_dim=8, d_state=16, conv_kernel=4, max_len=96)
        pretrained = pretrain(
            train_recs, val_recs, vocab, mcfg,
            TrainConfig(stage="pretrain", max_epochs=12, batch_size=32, seed=0, patience=12),
            tmp_path / "c10_pt")

        def species_accuracy(ckpt):
            state = ckpt.load_model()
            preds, _, _ = predict_dataset(state, vocab, taxo, val_lab, batch_size=32)
            rep = evaluate(preds, [r.label for r in val_lab], taxo)
            return rep.per_rank[6].micro_accuracy

        # equal budgets and matched learning rates so only the init differs
        wins = 0
        outcomes = []
        for seed in range(5):
            ft = finetune(train_lab, val_lab, taxo, vocab,
                          TrainConfig(stage="finetune", lr=8e-4, max_epochs=30,
                                      batch_size=32, seed=seed, patience=30),
                          tmp_path / f"c10_ft{seed}", init_from=pretrained)
            sc = finetune(train_lab, val_lab, taxo, vocab,
                          TrainConfig(stage="scratch", max_epochs=30,
                                      batch_size=32, seed=seed, patience=30),
                          tmp_path / f"c10_sc{seed}", model_cfg=mcfg)
            acc_ft = species_accuracy(ft)
            acc_sc = species_accuracy(sc)
            wins += acc_ft >= acc_sc
            outcomes.append((acc_ft, acc_sc))
        elapsed = time.monotonic() - started
        assert wins >= 4, f"finetune won only {wins}/5: {outcomes}"
        assert elapsed < 1800.0, f"took {elapsed:.0f}s"


def test_c11_tokenizer_round_trips():
    with criterion(11, "char/BPE round trips on 1000 random strings; BPE determinism"):
        rng = np.random.default_rng(11)
        bases = np.array(list("ACGT"))
        cv = char_vocab()
        for _ in range(1000):
            s = "".join(bases[rng.integers(0, 4, size=rng.integers(1, 60))])
            assert decode(cv, char_encode(cv, s)) == s
        corpus = ["".join(bases[rng.integers(0, 4, size=64)]) for _ in range(12)]
        bv = bpe_train(corpus, 48)
        for _ in range(1000):
            s = "".join(bases[rng.integers(0, 4, size=rng.integers(1, 80))])
            assert decode(bv, bpe_encode(bv, s)) == s
        merges = [bpe_train(corpus, 48).merges for _ in range(3)]
        assert merges[0] == merges[1] == merges[2]


def test_c12_determinism(tmp_path):
    with criterion(12, "finetune twice with one seed gives bitwise-identical checkpoints"):
        records = synth_generate(SynthConfig(
            rank_fanouts=(1, 1, 1, 1, 2, 2, 2), base_length=24, length_jitter=2,
            mutation_rate_per_rank=(0, 0.1, 0.1, 0.08, 0.08, 0.05, 0.03),
            samples_per_species=6, seed=0))
        train_recs, val_recs, _ = split_dataset(records, (0.8, 0.1, 0.1), seed=0)
        vocab = bpe_train([r.sequence for r in train_recs], 16)
        taxo = build_taxonomy(train_recs)
        mcfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=16, n_blocks=1,
                               head_dim=8, d_state=8, max_len=40)
        cfg = TrainConfig(stage="scratch", max_epochs=2, batch_size=16, seed=42)
        finetune(train_recs, val_recs, taxo, vocab, cfg, tmp_path / "one", model_cfg=mcfg)
        finetune(train_recs, val_recs, taxo, vocab, cfg, tmp_path / "two", model_cfg=mcfg)
        _assert_checkpoints_bitwise_equal(tmp_path / "one" / "final",
                                          tmp_path / "two" / "final")


def test_c13_overlap_report():
    with criterion(13, "overlap identities: 100/100, 0/0, and the 50% example"):
        from taxossm.records import BarcodeRecord
        full = lambda i: make_label("K", "P", "C", "O", "F", "G", f"s{i}")
        same = [BarcodeRecord(f"r{i}", "ACGT" * (i + 1), full(i)) for i in range(4)]
        rep = overlap_report(same, same)
        assert rep.species_overlap_pct == 100.0 and rep.barcode_overlap_pct == 100.0

        other = [BarcodeRecord("x", "TTTTTT", full(99))]
        rep = overlap_report(same, other)
        assert rep.species_overlap_pct == 0.0 and rep.barcode_overlap_pct == 0.0

        train = [BarcodeRecord(f"t{i}", s) for i, s in enumerate(["AAAA", "CCCC", "GGGG"])]
        test = [BarcodeRecord(f"q{i}", s)
                for i, s in enumerate(["CCCC", "GGGG", "TTTT", "ACGT"])]
        rep = overlap_report(train, test)
        assert rep.barcode_overlap_n == 2 and rep.barcode_overlap_pct == 50.0
