import ctypes
import io
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from taxossm import numcore as nc
from taxossm import ssm
from taxossm import train
from taxossm.errors import (
    CompatibilityError,
    ConfigError,
    EmptyDatasetError,
    NumericDomainError,
    ParseError,
)
from taxossm.numcore import Tensor
from taxossm.records import BarcodeRecord, make_label
from taxossm.seqdata import SynthConfig, split_dataset, synth_generate, write_fasta
from taxossm.taxonomy import Taxonomy, build_taxonomy, class_weights, smooth_target
from taxossm.tokenizers import PAD, bpe_train, char_vocab
from taxossm.train import (
    AdamW,
    TrainConfig,
    finetune,
    lm_loss,
    pad_batch,
    pretrain,
    weighted_cross_entropy,
)

from target_oracle import oracle_cases, reference_target, reference_weighted_cross_entropy
from toydata import toy_records


# ---------------------------------------------------------------------------
# config defaults


def test_stage_defaults_follow_training_recipe():
    assert TrainConfig(stage="pretrain").lr == 8e-4
    assert TrainConfig(stage="pretrain").max_epochs == 15
    assert TrainConfig(stage="finetune").lr == 8e-5
    assert TrainConfig(stage="finetune").max_epochs == 12
    assert TrainConfig(stage="scratch").lr == 8e-4
    assert TrainConfig(stage="scratch").max_epochs == 7
    cfg = TrainConfig(stage="finetune", lr=1e-3)
    assert cfg.lr == 1e-3
    with pytest.raises(ConfigError):
        TrainConfig(stage="warmup")
    with pytest.raises(ConfigError, match="smoothing_mode"):
        TrainConfig(stage="pretrain", smoothing_mode="hierachical")
    for epsilon in (-0.1, 1.0):
        with pytest.raises(ConfigError, match="epsilon"):
            TrainConfig(stage="finetune", epsilon=epsilon)
    with pytest.raises(ConfigError, match="head_mode"):
        TrainConfig(stage="finetune", head_mode="singel")


@pytest.mark.parametrize("setting, message", [
    ({"beta1": 1.0}, "beta1 must be in [0,1), got 1.0"),
    ({"beta1": -0.1}, "beta1 must be in [0,1), got -0.1"),
    ({"beta2": 1.0}, "beta2 must be in [0,1), got 1.0"),
    ({"adam_eps": 0.0}, "adam_eps must be > 0, got 0.0"),
    ({"weight_decay": -0.1}, "weight_decay must be >= 0, got -0.1"),
    ({"wall_clock_limit": 0}, "wall_clock_limit must be null or > 0, got 0"),
    ({"wall_clock_limit": -1}, "wall_clock_limit must be null or > 0, got -1"),
], ids=["beta1_one", "beta1_negative", "beta2_one", "adam_eps_zero", "weight_decay_negative",
        "wall_clock_zero", "wall_clock_negative"])
def test_train_config_refuses_out_of_range_optimizer_settings(setting, message):
    with pytest.raises(ConfigError) as err:
        TrainConfig(stage="pretrain", **setting)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# AdamW


def _scalar_param(value):
    return {"p": Tensor(np.array([value], dtype=np.float64), requires_grad=True)}


def test_adamw_first_step_closed_form():
    params = _scalar_param(1.0)
    opt = AdamW(params, lr=0.1, weight_decay=0.0)
    params["p"].grad = np.array([1.0])
    opt.step()
    # bias-corrected m/v ratio is 1 at t=1, so the step is lr/(1+eps)
    assert abs(params["p"].data[0] - 0.9) < 1e-8


def test_adamw_decay_only_step():
    params = _scalar_param(1.0)
    opt = AdamW(params, lr=0.1, weight_decay=0.1)
    params["p"].grad = np.array([0.0])
    opt.step()
    assert params["p"].data[0] == pytest.approx(1.0 * (1.0 - 0.1 * 0.1), abs=1e-12)


def test_adamw_no_decay_set_exempts_norms():
    params = {
        "w": Tensor(np.array([1.0]), requires_grad=True),
        "ln_g": Tensor(np.array([1.0]), requires_grad=True),
    }
    opt = AdamW(params, lr=0.1, weight_decay=0.5, no_decay={"ln_g"})
    for p in params.values():
        p.grad = np.zeros(1, dtype=p.data.dtype)
    opt.step()
    assert params["w"].data[0] < 1.0
    assert params["ln_g"].data[0] == 1.0


def test_adamw_skips_parameters_without_grad():
    params = _scalar_param(1.0)
    opt = AdamW(params, lr=0.1, weight_decay=0.5)
    params["p"].grad = None
    opt.step()
    assert params["p"].data[0] == 1.0


def test_adamw_two_runs_bitwise_identical(rng):
    grads = rng.normal(size=(20, 4)).astype(np.float32)

    def run():
        params = {"w": Tensor(np.ones(4, dtype=np.float32), requires_grad=True)}
        opt = AdamW(params, lr=0.01, weight_decay=0.1)
        for g in grads:
            params["w"].grad = g.copy()
            opt.step()
        return params["w"].data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# losses


def test_lm_loss_uniform_bound():
    vocab = char_vocab()
    cfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=8, n_blocks=1, head_dim=4,
                          d_state=4, max_len=16)
    state = ssm.init_model(cfg, seed=0)
    ids, mask = pad_batch([[2, 4, 5, 3], [2, 6, 3]])
    loss, n_valid = lm_loss(state, ids, mask)
    assert n_valid == 5  # 3 + 2 shifted targets
    assert abs(float(loss.data) - np.log(len(vocab))) < 1e-6


def test_lm_loss_matches_the_dense_one_hot_loss_and_its_gradient(rng):
    vocab = char_vocab()
    cfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=8, n_blocks=1, head_dim=4,
                          d_state=4, max_len=16)
    state = ssm.init_model(cfg, seed=0).astype(np.float64)
    state.params["lm_head"].data[:] = rng.normal(size=(8, len(vocab)))
    ids, mask = pad_batch([[2, 4, 5, 6, 3], [2, 6, 3]])

    def grads_of(loss):
        for p in state.params.values():
            p.grad = None
        nc.backward(loss)
        return {k: p.grad for k, p in state.params.items()}

    loss, n_valid = lm_loss(state, ids, mask)
    got = grads_of(loss)
    # the dense form: a (B, T-1, V) one-hot of the non-PAD targets
    logp = nc.log_softmax(ssm.lm_logits(state, ssm.model_forward(state, ids, mask))[:, :-1, :])
    onehot = np.zeros(logp.data.shape)
    b, t = np.nonzero(ids[:, 1:] != PAD)
    onehot[b, t, ids[b, t + 1]] = 1.0
    dense = nc.mul(nc.tsum(nc.mul(logp, Tensor(onehot))), Tensor(np.asarray(-1.0 / n_valid)))
    assert n_valid == 6
    assert abs(float(loss.data) - float(dense.data)) < 1e-12
    want = grads_of(dense)
    for name in state.params:
        assert np.array_equal(got[name], want[name]), name


def test_wce_uniform_logits_unweighted(toy_taxonomy):
    # one sample labelled to species; K=3 classes at species rank
    target = smooth_target(toy_taxonomy, toy_records()[0].label, "none", 0.0)
    logits = [Tensor(np.zeros((1, toy_taxonomy.n_classes(r)), dtype=np.float64))
              for r in range(7)]
    loss, skipped = weighted_cross_entropy(logits, [target], None, "multi")
    # ranks 0..4 have one class (ln 1 = 0), genus ln 2, species ln 3; mean of 7
    expected = (np.log(2.0) + np.log(3.0)) / 7.0
    assert abs(float(loss.data) - expected) < 1e-9
    assert skipped == 0


def test_wce_two_class_weighted_worked_example():
    records = [
        BarcodeRecord("a", "ACGT", make_label("k0")),
        BarcodeRecord("b", "ACGT", make_label("k1")),
        BarcodeRecord("c", "ACGT", make_label("k1")),
        BarcodeRecord("d", "ACGT", make_label("k1")),
        BarcodeRecord("e", "ACGT", make_label("k1")),
    ]
    taxo = build_taxonomy(records)
    weights = class_weights(taxo)
    assert np.allclose(weights.per_rank[0], [4 / 3, 2 / 3])
    target = smooth_target(taxo, make_label("k0"), "none", 0.0)
    logits = [Tensor(np.zeros((1, 2), dtype=np.float64)) for _ in range(7)]
    loss, _ = weighted_cross_entropy(logits, [target], weights, "multi")
    assert abs(float(loss.data) - (4 / 3) * np.log(2.0)) < 1e-9


def test_wce_epsilon_zero_matches_none_mode(toy_taxonomy, rng):
    label = toy_records()[1].label
    t_none = smooth_target(toy_taxonomy, label, "none", 0.0)
    t_hier = smooth_target(toy_taxonomy, label, "hierarchical", 0.0)
    logits = [Tensor(rng.normal(size=(1, toy_taxonomy.n_classes(r))), dtype=np.float64)
              for r in range(7)]
    l1, _ = weighted_cross_entropy(logits, [t_none], None, "multi")
    l2, _ = weighted_cross_entropy(logits, [t_hier], None, "multi")
    assert float(l1.data) == float(l2.data)


def test_wce_fully_masked_sample_counts(toy_taxonomy):
    blank = smooth_target(toy_taxonomy, make_label(), "none", 0.0)
    logits = [Tensor(np.zeros((1, toy_taxonomy.n_classes(r)), dtype=np.float64))
              for r in range(7)]
    loss, skipped = weighted_cross_entropy(logits, [blank], None, "multi")
    assert float(loss.data) == 0.0 and skipped == 1


def test_wce_weighting_scales_gradient_without_rotating_it(toy_taxonomy, rng):
    """Single-sample batch: enabling the weight multiplies each rank's gradient
    by that rank's true-class weight, never changes its direction."""
    label = toy_records()[0].label
    target = smooth_target(toy_taxonomy, label, "hierarchical", 0.1)
    weights = class_weights(toy_taxonomy)
    raw = [rng.normal(size=(1, toy_taxonomy.n_classes(r))) for r in range(7)]

    def grads(enabled):
        logits = [Tensor(x.copy(), requires_grad=True, dtype=np.float64) for x in raw]
        loss, _ = weighted_cross_entropy(
            logits, [target], weights if enabled else None, "multi")
        nc.backward(loss)
        return [l.grad.copy() for l in logits]

    plain = grads(False)
    weighted = grads(True)
    for r in range(7):
        w = weights.per_rank[r][target.true_index[r]]
        assert np.allclose(weighted[r], plain[r] * w, atol=1e-12)


def test_wce_single_head_uses_species_only(toy_taxonomy):
    target = smooth_target(toy_taxonomy, toy_records()[0].label, "none", 0.0)
    logits = [Tensor(np.zeros((1, 3), dtype=np.float64))]
    loss, _ = weighted_cross_entropy(logits, [target], None, "single")
    assert abs(float(loss.data) - np.log(3.0)) < 1e-9


def test_wce_unweighted_unsmoothed_equals_plain_cross_entropy(toy_taxonomy, rng):
    label = toy_records()[2].label
    target = smooth_target(toy_taxonomy, label, "none", 0.0)
    raw = [rng.normal(size=(1, toy_taxonomy.n_classes(r))) for r in range(7)]
    logits = [Tensor(x, dtype=np.float64) for x in raw]
    loss, _ = weighted_cross_entropy(logits, [target], None, "multi")
    manual = 0.0
    for r in range(7):
        z = raw[r][0]
        y = target.true_index[r]
        manual += -(z[y] - np.log(np.exp(z - z.max()).sum()) - z.max())
    assert float(loss.data) == pytest.approx(manual / 7.0, rel=1e-12)


def test_wce_matches_the_per_record_oracle_bitwise():
    """Loss and every logit gradient equal a per-record loop's bitwise, on mixed
    batches holding fully unlabelled rows and heads without a labelled row."""
    headless = 0
    for case, (taxo, labels) in enumerate(oracle_cases(n_random=4)):
        rng = np.random.default_rng(case)
        weights = class_weights(taxo)
        for mode, eps in (("none", 0.0), ("standard", 0.3), ("hierarchical", 0.2)):
            order = rng.permutation(len(labels))
            # the shallow half leaves the deep heads without a labelled row
            shallow = sorted(order, key=lambda i: labels[i].depth)[: max(2, len(labels) // 2)]
            for batch in ([labels[i] for i in order], [labels[i] for i in shallow]):
                targets = [smooth_target(taxo, lab, mode, eps) for lab in batch]
                refs = [reference_target(taxo, lab, mode, eps) for lab in batch]
                for dtype in (np.float64, np.float32):
                    for head_mode in ("multi", "single"):
                        ranks = ssm.head_ranks(head_mode)
                        # a rank with no class gets width-2 logits, as in c05
                        raw = [rng.normal(size=(len(batch), taxo.n_classes(r) or 2))
                               for r in ranks]
                        for w in (weights, None):
                            def run(loss_fn, tgts):
                                logits = [Tensor(x, requires_grad=True, dtype=dtype) for x in raw]
                                loss, skipped = loss_fn(logits, tgts, w, head_mode)
                                nc.backward(loss)
                                return loss.data, skipped, [t.grad for t in logits]
                            got = run(weighted_cross_entropy, targets)
                            want = run(reference_weighted_cross_entropy, refs)
                            assert got[0].dtype == want[0].dtype == dtype
                            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
                            for head, r in enumerate(ranks):
                                assert got[2][head] is not None
                                assert np.array_equal(got[2][head], want[2][head]), (case, r)
                                if all(lab.depth <= r for lab in batch):
                                    assert not got[2][head].any()
                                    headless += 1
    assert headless > 0


def test_lm_teacher_forcing_loss_decreases_on_two_sequences():
    vocab = char_vocab()
    cfg = ssm.ModelConfig(vocab_size=len(vocab), d_model=16, n_blocks=1, head_dim=8,
                          d_state=8, max_len=32)
    state = ssm.init_model(cfg, seed=0)
    opt = AdamW(state.params, lr=3e-3, weight_decay=0.0, no_decay=state.norm_param_names)
    ids, mask = pad_batch([
        [2, 4, 5, 6, 7, 4, 5, 6, 7, 3],
        [2, 7, 7, 4, 4, 7, 7, 4, 4, 3],
    ])
    first = None
    for step in range(50):
        opt.zero_grad()
        loss, _ = lm_loss(state, ids, mask)
        if first is None:
            first = float(loss.data)
        nc.backward(loss)
        opt.step()
    final, _ = lm_loss(state, ids, mask)
    assert float(final.data) < first


def test_wce_loss_nonnegative(toy_taxonomy, rng):
    for _ in range(10):
        label = toy_records()[int(rng.integers(0, 3))].label
        target = smooth_target(toy_taxonomy, label, "hierarchical",
                               float(rng.uniform(0, 0.5)))
        logits = [Tensor(rng.normal(size=(1, toy_taxonomy.n_classes(r))), dtype=np.float64)
                  for r in range(7)]
        loss, _ = weighted_cross_entropy(logits, [target], None, "multi")
        assert float(loss.data) >= 0.0


# ---------------------------------------------------------------------------
# training loops (tiny smoke scale)


def _synth_split(seed=0, n_per_species=6, dropout=0.0):
    records = synth_generate(SynthConfig(
        rank_fanouts=(1, 1, 1, 1, 2, 2, 2), base_length=24, length_jitter=2,
        mutation_rate_per_rank=(0, 0.1, 0.1, 0.08, 0.08, 0.05, 0.03),
        samples_per_species=n_per_species,
        label_dropout_per_rank=(0, 0, 0, 0, 0, 0, dropout), seed=seed))
    return split_dataset(records, (0.8, 0.1, 0.1), seed=seed)


def _tiny_model(vocab, **kw):
    defaults = dict(vocab_size=len(vocab), d_model=16, n_blocks=1, head_dim=8,
                    d_state=8, conv_kernel=4, max_len=40)
    defaults.update(kw)
    return ssm.ModelConfig(**defaults)


def test_pretrain_beats_uniform(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = bpe_train([r.sequence for r in train_recs], 16)
    cfg = TrainConfig(stage="pretrain", max_epochs=4, batch_size=16, seed=0, patience=3)
    ckpt = pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path / "pt")
    assert ckpt.manifest["best_val_loss"] < np.log(len(vocab))
    history = ckpt.manifest["history"]
    assert history[-1]["val_loss"] <= history[0]["val_loss"]


def test_pretrain_patience_zero_stops_on_first_plateau(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    # lr=0 cannot improve, so epoch 2 fails to beat epoch 1 and training stops
    cfg = TrainConfig(stage="pretrain", lr=1e-30, max_epochs=10, batch_size=16,
                      seed=0, patience=0)
    ckpt = pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path / "pt")
    assert len(ckpt.manifest["history"]) == 2


def test_pretrain_empty_dataset_errors(tmp_path):
    with pytest.raises(EmptyDatasetError):
        pretrain([], [], char_vocab(), _tiny_model(char_vocab()),
                 TrainConfig(stage="pretrain"), tmp_path / "pt")


def _checkpoint_files(root):
    root = Path(root)
    return sorted(p.relative_to(root) for p in root.rglob("*.bin"))


def _assert_checkpoints_bitwise_equal(a, b):
    files_a = _checkpoint_files(a)
    files_b = _checkpoint_files(b)
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (Path(a) / rel).read_bytes() == (Path(b) / rel).read_bytes(), rel
    assert (Path(a) / "manifest.json").read_bytes() == (Path(b) / "manifest.json").read_bytes()


def test_pretrain_resume_reproduces_uninterrupted_run(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = bpe_train([r.sequence for r in train_recs], 12)
    mcfg = _tiny_model(vocab)

    full_cfg = TrainConfig(stage="pretrain", max_epochs=4, batch_size=16, seed=3, patience=10)
    full = pretrain(train_recs, val_recs, vocab, mcfg, full_cfg, tmp_path / "full")

    half_cfg = TrainConfig(stage="pretrain", max_epochs=2, batch_size=16, seed=3, patience=10)
    pretrain(train_recs, val_recs, vocab, mcfg, half_cfg, tmp_path / "resumed")
    resumed = pretrain(train_recs, val_recs, vocab, mcfg, full_cfg,
                       tmp_path / "resumed", resume=True)

    assert resumed.manifest["history"] == full.manifest["history"]
    _assert_checkpoints_bitwise_equal(tmp_path / "full" / "final",
                                      tmp_path / "resumed" / "final")


def test_resume_decodes_each_tensor_of_last_once(tmp_path, monkeypatch):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0, patience=10)
    pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path)
    index = json.loads((tmp_path / "last" / "manifest.json").read_text())["tensors"]
    decoded, load_tensor = [], nc.load_tensor

    def counting(raw, entry, path, name):
        decoded.append(name)
        return load_tensor(raw, entry, path, name)

    monkeypatch.setattr(nc, "load_tensor", counting)
    pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), replace(cfg, max_epochs=2),
             tmp_path, resume=True)
    assert set(index) == {"params", "opt_m", "opt_v", "best"}
    assert sorted(decoded) == sorted(f"{g}/{name}" for g in index for name in index[g])


def test_resume_mid_plateau_stops_where_the_uninterrupted_run_stops(tmp_path):
    # lr=1e-30 cannot move the parameters, so epoch 1 stays the best and every
    # later epoch extends the plateau: with patience 2 the run stops at epoch 3.
    # The half run's `last` is epoch 2, one epoch into the plateau; a resume
    # that lost that count would train a fourth epoch
    train_recs, val_recs, _ = _synth_split()
    vocab = bpe_train([r.sequence for r in train_recs], 12)
    mcfg = _tiny_model(vocab)
    full_cfg = TrainConfig(stage="pretrain", lr=1e-30, max_epochs=10, batch_size=16, seed=3,
                           patience=2)
    full = pretrain(train_recs, val_recs, vocab, mcfg, full_cfg, tmp_path / "full")
    assert len(full.manifest["history"]) == 3 and full.manifest["best_epoch"] == 1

    pretrain(train_recs, val_recs, vocab, mcfg, replace(full_cfg, max_epochs=2),
             tmp_path / "resumed")
    last = json.loads((tmp_path / "resumed" / "last" / "manifest.json").read_text())
    assert (last["epoch"], last["best_epoch"]) == (2, 1)
    resumed = pretrain(train_recs, val_recs, vocab, mcfg, full_cfg,
                       tmp_path / "resumed", resume=True)

    assert resumed.manifest["history"] == full.manifest["history"]
    _assert_checkpoints_bitwise_equal(tmp_path / "full" / "final",
                                      tmp_path / "resumed" / "final")
    _assert_checkpoints_bitwise_equal(tmp_path / "full" / "last",
                                      tmp_path / "resumed" / "last")


@pytest.mark.parametrize("edit, named", [
    (lambda m: m.update(best_epoch=9), "best_epoch 9 is not in 0..3"),
    (lambda m: m["history"][1].pop("val_loss"), "history is not a list of"),
    (lambda m: m.update(epoch=2), "epoch 2 != 3"),
], ids=["best_epoch_past_history", "entry_without_val_loss", "epoch_not_history_length"])
def test_resume_refuses_a_manifest_whose_progress_does_not_add_up(tmp_path, edit, named):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=3, batch_size=16, seed=0, patience=10)
    pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path)
    path = tmp_path / "last" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ParseError) as err:
        pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), replace(cfg, max_epochs=4),
                 tmp_path, resume=True)
    assert str(err.value).startswith(f"{path}: checkpoint {named}")


def test_pretrain_resumes_from_last_old_after_crash_between_renames(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = bpe_train([r.sequence for r in train_recs], 12)
    mcfg = _tiny_model(vocab)

    full_cfg = TrainConfig(stage="pretrain", max_epochs=2, batch_size=16, seed=3, patience=10)
    full = pretrain(train_recs, val_recs, vocab, mcfg, full_cfg, tmp_path / "full")

    half_cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=3, patience=10)
    pretrain(train_recs, val_recs, vocab, mcfg, half_cfg, tmp_path / "resumed")
    epoch1_log = (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
    # what a kill between `last` -> `last.old` and `tmp` -> `last` of epoch 2's
    # checkpoint leaves behind: epoch 2 is in the log, its checkpoint is not
    (tmp_path / "resumed" / "last").replace(tmp_path / "resumed" / "last.old")
    full_log = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()
    with open(tmp_path / "resumed" / "metrics.jsonl", "a") as fh:
        fh.writelines(line + "\n" for line in full_log if json.loads(line)["epoch"] == 2)
        fh.write('{"epoch": 3, "spl')  # and a line torn by the kill
    resumed = pretrain(train_recs, val_recs, vocab, mcfg, full_cfg,
                       tmp_path / "resumed", resume=True)

    assert resumed.manifest["history"] == full.manifest["history"]
    _assert_checkpoints_bitwise_equal(tmp_path / "full" / "final",
                                      tmp_path / "resumed" / "final")
    assert not (tmp_path / "resumed" / "last.old").exists()
    # epoch 2's lines from before the kill are replaced by the rerun's
    def epochs_and_splits(log):
        return [(e["epoch"], e["split"]) for e in map(json.loads, log)]

    log = (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
    expected = [(1, "train"), (1, "val"), (2, "train"), (2, "val")]
    assert epochs_and_splits(full_log) == epochs_and_splits(log) == expected
    # a silent restart reproduces the same numbers, so check that epoch 1 ran
    # only once: its lines, wall times included, are the first run's
    assert log[:2] == epoch1_log


def test_fresh_run_replaces_an_old_metrics_log(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = bpe_train([r.sequence for r in train_recs], 12)
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=3, patience=10)
    pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path)
    pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path)
    log = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert [(json.loads(line)["epoch"], json.loads(line)["split"]) for line in log] == [
        (1, "train"), (1, "val")]


@pytest.mark.parametrize("stage, changed, expected", [
    ("pretrain", {"d_model": 24}, "model_config.d_model: checkpoint 16 != run 24"),
    ("pretrain", {"n_blocks": 2}, "model_config.n_blocks: checkpoint 1 != run 2"),
    ("scratch", {"head_mode": "single"},
     "model_config.head_mode: checkpoint multi != run single"),
    ("scratch", {"taxonomy": "swapped"}, "taxonomy: checkpoint taxonomy differs"),
    ("pretrain", {"vocab": "val"}, "tokenizer: checkpoint vocabulary differs"),
    ("pretrain", {"lr": 5e-3}, "train_config.lr: checkpoint 0.0008 != run 0.005"),
    ("scratch", {"batch_size": 4}, "train_config.batch_size: checkpoint 16 != run 4"),
    ("pretrain", {"seed": 7}, "train_config.seed: checkpoint 0 != run 7"),
], ids=["d_model", "n_blocks", "head_mode", "species_names", "bpe_merges", "lr", "batch_size",
        "seed"])
def test_resume_refuses_a_checkpoint_of_another_run(tmp_path, monkeypatch, stage, changed,
                                                    expected):
    train_recs, val_recs, _ = _synth_split()

    def run(max_epochs, resume=False, vocab="train", taxonomy="built", head_mode="multi",
            lr=None, batch_size=16, seed=0, **model_kw):
        # "train" and "val" vocabularies have the same size but other merges
        corpus = train_recs if vocab == "train" else val_recs
        vocab = bpe_train([r.sequence for r in corpus], 12)
        taxo = build_taxonomy(train_recs)
        if taxonomy == "swapped":  # same class counts, two species trade names
            names = [list(rank_names) for rank_names in taxo.names_per_rank]
            names[6][:2] = names[6][1::-1]
            taxo = Taxonomy(names, taxo.parent, taxo.freq_per_rank)
        mcfg = _tiny_model(vocab, **model_kw)
        cfg = TrainConfig(stage=stage, lr=lr, max_epochs=max_epochs, batch_size=batch_size,
                          seed=seed, head_mode=head_mode)
        if stage == "pretrain":
            return pretrain(train_recs, val_recs, vocab, mcfg, cfg, tmp_path, resume=resume)
        return finetune(train_recs, val_recs, taxo, vocab, cfg, tmp_path,
                        model_cfg=mcfg, resume=resume)

    run(1)
    steps = []
    monkeypatch.setattr(train.AdamW, "step", lambda opt: steps.append(opt.t))
    with pytest.raises(CompatibilityError) as err:
        run(2, resume=True, **changed)
    assert f"cannot resume from {tmp_path / 'last'}" in str(err.value)
    assert expected in str(err.value)
    assert steps == []
    assert json.loads((tmp_path / "last" / "manifest.json").read_text())["epoch"] == 1


@pytest.mark.parametrize("stage, split", [
    ("pretrain", "train"), ("pretrain", "val"), ("scratch", "train"), ("scratch", "val"),
], ids=["train", "val", "finetune-train", "finetune-val"])
def test_nonfinite_loss_stops_before_checkpoint(tmp_path, monkeypatch, stage, split):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    epochs_written = []
    write_checkpoint = train._write_checkpoint

    def record_write(dest, manifest, *args):
        epochs_written.append(manifest["epoch"])
        write_checkpoint(dest, manifest, *args)

    def poisoned(loss_fn):
        def loss_with_nan_from_epoch_2(*args):
            loss, count = loss_fn(*args)
            in_val = not nc._grad_enabled
            if epochs_written and in_val == (split == "val"):
                loss = nc.mul(loss, Tensor(np.asarray(np.nan, dtype=loss.data.dtype)))
            return loss, count
        return loss_with_nan_from_epoch_2

    monkeypatch.setattr(train, "_write_checkpoint", record_write)
    cfg = TrainConfig(stage=stage, max_epochs=3, batch_size=16, seed=0, patience=10)
    with pytest.raises(NumericDomainError, match=f"epoch 2: non-finite {split} loss"):
        if stage == "pretrain":
            monkeypatch.setattr(train, "lm_loss", poisoned(lm_loss))
            pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path / "pt")
        else:
            monkeypatch.setattr(train, "weighted_cross_entropy",
                                poisoned(weighted_cross_entropy))
            finetune(train_recs, val_recs, build_taxonomy(train_recs), vocab, cfg,
                     tmp_path / "pt", model_cfg=_tiny_model(vocab))

    assert epochs_written == [1]
    last = json.loads((tmp_path / "pt" / "last" / "manifest.json").read_text())
    assert last["epoch"] == 1 and all(np.isfinite(h["val_loss"]) for h in last["history"])
    assert not (tmp_path / "pt" / "final").exists()


def test_finetune_overfits_tiny_dataset(tmp_path):
    # eight well-separated species (one per genus), per-record noise only from jitter
    records = synth_generate(SynthConfig(
        rank_fanouts=(1, 1, 1, 1, 2, 4, 1), base_length=24, length_jitter=2,
        mutation_rate_per_rank=(0, 0.1, 0.1, 0.1, 0.15, 0.2, 0.0),
        samples_per_species=8, seed=0))
    train_recs, val_recs, _ = split_dataset(records, (0.8, 0.1, 0.1), seed=0)
    vocab = bpe_train([r.sequence for r in train_recs], 16)
    taxo = build_taxonomy(train_recs)
    cfg = TrainConfig(stage="scratch", lr=5e-3, max_epochs=25, batch_size=16,
                      seed=0, patience=25, weighted_loss=False, smoothing_mode="none",
                      epsilon=0.0)
    ckpt = finetune(train_recs, val_recs, taxo, vocab, cfg, tmp_path / "ft",
                    model_cfg=_tiny_model(vocab))
    from taxossm.evaluation import evaluate, predict_dataset
    state = ckpt.load_model()
    preds, _, _ = predict_dataset(state, vocab, taxo, train_recs, batch_size=16)
    report = evaluate(preds, [r.label for r in train_recs], taxo)
    assert report.per_rank[6].micro_accuracy == 1.0


@pytest.mark.parametrize("stage, init_from, message", [
    ("finetune", None, "stage=finetune requires a pretraining checkpoint"),
    ("scratch", "pt", "stage=scratch trains from no checkpoint, but init_from is set"),
], ids=["finetune_without_checkpoint", "scratch_with_checkpoint"])
def test_finetune_refuses_a_stage_its_checkpoint_contradicts(tmp_path, toy_taxonomy, stage,
                                                              init_from, message):
    recs, vocab = toy_records(), char_vocab()
    with pytest.raises(ConfigError) as err:
        finetune(recs, recs, toy_taxonomy, vocab, TrainConfig(stage=stage), tmp_path / "ft",
                 model_cfg=_tiny_model(vocab), init_from=init_from and tmp_path / init_from)
    assert str(err.value) == message
    assert not (tmp_path / "ft").exists()


def test_finetune_single_head_needs_species_labels(tmp_path):
    train_recs, val_recs, _ = _synth_split(dropout=1.0)
    vocab = char_vocab()
    taxo = build_taxonomy(train_recs)
    cfg = TrainConfig(stage="scratch", head_mode="single", max_epochs=1)
    with pytest.raises(ConfigError):
        finetune(train_recs, val_recs, taxo, vocab, cfg, tmp_path / "ft",
                 model_cfg=_tiny_model(vocab))


def test_finetune_rejects_incompatible_checkpoint(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = bpe_train([r.sequence for r in train_recs], 12)
    mcfg = _tiny_model(vocab)
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0)
    ckpt = pretrain(train_recs, val_recs, vocab, mcfg, cfg, tmp_path / "pt")
    taxo = build_taxonomy(train_recs)
    other = _tiny_model(vocab, d_model=24, head_dim=8)
    with pytest.raises(CompatibilityError) as err:
        finetune(train_recs, val_recs, taxo, vocab,
                 TrainConfig(stage="finetune", max_epochs=1), tmp_path / "ft",
                 model_cfg=other, init_from=ckpt)
    assert "d_model" in str(err.value)


def test_scratch_and_finetune_differ_only_in_backbone_at_step_zero(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = bpe_train([r.sequence for r in train_recs], 12)
    mcfg = _tiny_model(vocab)
    pre = pretrain(train_recs, val_recs, vocab, mcfg,
                   TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0),
                   tmp_path / "pt")
    taxo = build_taxonomy(train_recs)
    counts = taxo.class_counts()

    scratch_state = ssm.init_model(mcfg, seed=5)
    ssm.add_classification_heads(scratch_state, counts, seed=5)
    ft_state = ssm.init_model(mcfg, seed=5)
    for name, arr in pre.load_arrays("params")["params"].items():
        ft_state.params[name].data = arr.copy()
    ssm.add_classification_heads(ft_state, counts, seed=5)

    backbone_differs = False
    for name in scratch_state.params:
        same = np.array_equal(scratch_state.params[name].data, ft_state.params[name].data)
        if name.startswith("heads."):
            assert same, f"head {name} should be identically initialized"
        elif not same:
            backbone_differs = True
    assert backbone_differs


def test_finetune_bitwise_deterministic(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = bpe_train([r.sequence for r in train_recs], 12)
    taxo = build_taxonomy(train_recs)
    cfg = TrainConfig(stage="scratch", max_epochs=2, batch_size=16, seed=9)
    finetune(train_recs, val_recs, taxo, vocab, cfg, tmp_path / "a",
             model_cfg=_tiny_model(vocab))
    finetune(train_recs, val_recs, taxo, vocab, cfg, tmp_path / "b",
             model_cfg=_tiny_model(vocab))
    _assert_checkpoints_bitwise_equal(tmp_path / "a" / "final", tmp_path / "b" / "final")


def test_checkpoint_round_trip_and_metrics_log(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=2, batch_size=16, seed=0)
    ckpt = pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path / "pt")

    state = ckpt.load_model()
    again = ckpt.load_arrays("params")["params"]
    for name, p in state.params.items():
        assert np.array_equal(p.data, again[name])

    lines = [json.loads(l) for l in (tmp_path / "pt" / "metrics.jsonl").read_text().splitlines()]
    assert {l["split"] for l in lines} == {"train", "val"}
    assert all({"epoch", "split", "loss", "lr", "wall_ms"} <= set(l) for l in lines)

    returned_val = ckpt.manifest["best_val_loss"]
    assert returned_val == min(h["val_loss"] for h in ckpt.manifest["history"])


@pytest.mark.parametrize("edit, named", [
    (lambda m: m.pop("epoch"), "manifest lacks ['epoch']"),
    (lambda m: m["model_config"].update(dmodel=m["model_config"].pop("d_model")),
     "model_config lacks ['d_model']; model_config has unknown keys ['dmodel']"),
    (lambda m: m["train_config"].update(warmup=2), "train_config has unknown keys ['warmup']"),
    (lambda m: m.update(model_config=[16]), "model_config is not a JSON object"),
    (lambda m: m.update(class_counts=[1, 2, 3, 4, 5, 6]),
     "class_counts is not null or a list of 7 positive ints: [1, 2, 3, 4, 5, 6]"),
    (lambda m: m.update(class_counts=[1, 1, 2, 0, 3, 4, 5]),
     "class_counts is not null or a list of 7 positive ints: [1, 1, 2, 0, 3, 4, 5]"),
    (lambda m: m.update(class_counts=[1, 1, 2, 2.0, 3, 4, True]),
     "class_counts is not null or a list of 7 positive ints: [1, 1, 2, 2.0, 3, 4, True]"),
    (lambda m: m.update(class_counts={"species": 3}),
     "class_counts is not null or a list of 7 positive ints: {'species': 3}"),
    (lambda m: m.update(vocab_file="../ft1/final/vocab.txt"),
     "manifest has unknown keys ['vocab_file']"),
    (lambda m: m["model_config"].update(d_model="64"),
     "model_config: d_model must be int, got '64'"),
    (lambda m: m["model_config"].update(n_blocks=True),
     "model_config: n_blocks must be int, got True"),
    (lambda m: m["model_config"].update(head_mode=None),
     "model_config: head_mode must be str, got None"),
    (lambda m: m["model_config"].update(d_model=0), "model_config: d_model must be positive, got 0"),
    (lambda m: m["model_config"].update(head_dim=5),
     "model_config: expand*d_model = 32 not divisible by head_dim = 5"),
], ids=["manifest", "model_config", "train_config", "model_config_not_object",
        "class_counts_six", "class_counts_zero", "class_counts_not_ints",
        "class_counts_not_list", "file_path", "model_config_str", "model_config_bool",
        "model_config_null", "model_config_zero", "model_config_indivisible"])
def test_checkpoint_manifest_with_other_keys_names_them(tmp_path, edit, named):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0)
    final = pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path).dir
    manifest = json.loads((final / "manifest.json").read_text())
    edit(manifest)
    (final / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError) as err:
        train.Checkpoint(final)
    assert str(err.value) == f"{final / 'manifest.json'}: checkpoint {named}"


@pytest.mark.parametrize("name, what, load", [
    ("vocab.txt", "vocabulary", train.Checkpoint.load_vocab),
    ("taxonomy.json", "taxonomy", train.Checkpoint.load_taxonomy),
], ids=["vocabulary", "taxonomy"])
def test_checkpoint_without_its_vocabulary_or_taxonomy_names_the_file(tmp_path, name, what,
                                                                      load):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="scratch", max_epochs=1, batch_size=16, seed=0)
    final = finetune(train_recs, val_recs, build_taxonomy(train_recs), vocab, cfg, tmp_path,
                     model_cfg=_tiny_model(vocab)).dir
    (final / name).unlink()
    with pytest.raises(ParseError) as err:
        load(train.Checkpoint(final))
    assert err.value.path == final / name
    assert str(err.value) == f"{final / name}: checkpoint {what} is missing"


def test_checkpoint_manifest_text_is_what_json_dump_writes(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="scratch", max_epochs=1, batch_size=16, seed=0)
    finetune(train_recs, val_recs, build_taxonomy(train_recs), vocab, cfg, tmp_path,
             model_cfg=_tiny_model(vocab))
    for dest in ("last", "final"):
        text = (tmp_path / dest / "manifest.json").read_text(encoding="ascii")
        streamed = io.StringIO()
        json.dump(json.loads(text), streamed, indent=1, sort_keys=True)
        assert text == streamed.getvalue()


def _flip_first_byte_of(name):
    def flip(final, manifest):
        blob = final / "tensors.bin"
        raw = bytearray(blob.read_bytes())
        raw[manifest["tensors"]["params"][name]["offset"]] ^= 0x10
        blob.write_bytes(bytes(raw))
    return flip


def _grow_shape_of(name):
    def grow(final, manifest):
        manifest["tensors"]["params"][name]["shape"][0] += 1
        (final / "manifest.json").write_text(json.dumps(manifest))
    return grow


@pytest.mark.parametrize("fault, named", [
    (lambda final, _: (final / "tensors.bin").write_bytes(
        (final / "tensors.bin").read_bytes()[:-1]), "tensor params/lm_head spans"),
    (_flip_first_byte_of("blocks.0.w_val"),
     "tensor params/blocks.0.w_val fails its crc32 check"),
    (_grow_shape_of("blocks.0.w_val"), "tensor params/blocks.0.w_val spans"),
    (lambda final, _: (final / "tensors.bin").unlink(), "checkpoint tensor blob is missing"),
], ids=["truncated", "bit_flip", "wrong_shape", "missing"])
def test_corrupt_checkpoint_blob_raises_parse_error_naming_it(tmp_path, fault, named):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0)
    final = pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path).dir
    fault(final, json.loads((final / "manifest.json").read_text()))
    with pytest.raises(ParseError) as err:
        train.Checkpoint(final).load_model()
    assert err.value.path == final / "tensors.bin"
    assert str(err.value).startswith(f"{final / 'tensors.bin'}: {named}")


@pytest.mark.parametrize("version, found", [
    (None, "no format_version (format 1, a file per tensor)"), (2, "format_version 2"),
    (4, "format_version 4"),
], ids=["unversioned", "older", "newer"])
def test_checkpoint_of_another_format_version_names_it(tmp_path, version, found):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0)
    final = pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path).dir
    manifest = json.loads((final / "manifest.json").read_text())
    manifest["format_version"] = version
    if version is None:
        del manifest["format_version"]
    (final / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ParseError) as err:
        train.Checkpoint(final)
    assert str(err.value) == (f"{final / 'manifest.json'}: checkpoint has {found}; "
                              "this build reads format_version 3")


def test_checkpoint_file_count_does_not_grow_with_the_tensor_count(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    taxo = build_taxonomy(train_recs)
    cfg = TrainConfig(stage="scratch", max_epochs=1, batch_size=16, seed=0)
    listings = []
    for n_blocks in (1, 3):
        out = tmp_path / f"blocks{n_blocks}"
        finetune(train_recs, val_recs, taxo, vocab, cfg, out,
                 model_cfg=_tiny_model(vocab, n_blocks=n_blocks))
        listings.append({d: sorted(p.name for p in (out / d).iterdir())
                         for d in ("last", "final")})
    files = ["manifest.json", "taxonomy.json", "tensors.bin", "vocab.txt"]
    assert listings[0] == listings[1] == {"last": files, "final": files}


def test_checkpoint_write_fsyncs_its_files_before_the_renames_and_the_parent_after(
        tmp_path, monkeypatch):
    out = tmp_path / "pt"
    synced = []  # (path, whether a temporary directory was still waiting for its rename)
    fsync = train._fsync

    def record(path):
        synced.append((Path(path), any(".tmp" in p.name for p in out.iterdir())))
        fsync(path)

    monkeypatch.setattr(train, "_fsync", record)
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0)
    pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, out)

    assert len(synced) == 2 * 5
    for dest, calls in (("last", synced[:5]), ("final", synced[5:])):
        tmp = out / f"{dest}.tmp{os.getpid()}"
        assert {path for path, _ in calls[:-2]} == {
            tmp / "manifest.json", tmp / "tensors.bin", tmp / "vocab.txt"}
        assert all(pending for _, pending in calls[:-2])
        assert calls[-2:] == [(tmp, True), (out, False)]


def test_loading_one_group_checks_the_tensors_of_every_group(tmp_path):
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0)
    pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path)
    last = tmp_path / "last"
    manifest = json.loads((last / "manifest.json").read_text())
    blob = bytearray((last / "tensors.bin").read_bytes())
    blob[manifest["tensors"]["opt_v"]["embedding"]["offset"]] ^= 0x01
    (last / "tensors.bin").write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="tensor opt_v/embedding fails its crc32 check"):
        train.Checkpoint(last).load_arrays("params")


@pytest.mark.parametrize("edit, named", [
    (lambda p: p.update({"blocks.0.w_val": p["blocks.0.w_val"].T.copy()}),
     "tensor params/blocks.0.w_val: checkpoint has (32, 16), model has (16, 32)"),
    (lambda p: p.pop("blocks.0.w_val"),
     "tensor params/blocks.0.w_val: checkpoint has no such tensor, model has (16, 32)"),
    (lambda p: p.update({"blocks.0.extra": np.zeros(3, dtype=np.float32)}),
     "tensor params/blocks.0.extra: checkpoint has (3,), model has no such parameter"),
], ids=["swapped_shape", "missing", "extra"])
def test_checkpoint_params_other_than_the_model_raise_parse_error(tmp_path, edit, named):
    # each edit keeps the blob and its index consistent, so only the model check sees it
    train_recs, val_recs, _ = _synth_split()
    vocab = char_vocab()
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0, patience=10)
    pretrain(train_recs, val_recs, vocab, _tiny_model(vocab), cfg, tmp_path)
    for dest in ("last", "final"):
        ckpt = train.Checkpoint(tmp_path / dest)
        groups = ckpt.load_arrays(*ckpt.manifest["tensors"])
        edit(groups["params"])
        train._write_checkpoint(tmp_path / dest, ckpt.manifest, groups, vocab, None)
    ft_cfg = TrainConfig(stage="finetune", max_epochs=1, batch_size=16, seed=0)
    loads = [  # (the checkpoint each load site reads, the load)
        ("final", lambda: train.Checkpoint(tmp_path / "final").load_model()),
        ("final", lambda: finetune(train_recs, val_recs, build_taxonomy(train_recs), vocab,
                                   ft_cfg, tmp_path / "ft", init_from=tmp_path / "final")),
        ("last", lambda: pretrain(train_recs, val_recs, vocab, _tiny_model(vocab),
                                  replace(cfg, max_epochs=2), tmp_path, resume=True)),
    ]
    for dest, load in loads:
        with pytest.raises(ParseError) as err:
            load()
        assert str(err.value) == f"{tmp_path / dest / 'manifest.json'}: {named}"


# ---------------------------------------------------------------------------
# the allocator settings


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator settings")
def test_train_steps_do_not_fault_the_heap_top_back_in(tmp_path):
    # a second run of the same shapes needs almost no new pages. Minor faults over
    # the whole run (validation and checkpoints included) per train step, alone
    # in a fresh process: without the settings about 6,500 for the second run;
    # with them 0
    records = synth_generate(SynthConfig(
        rank_fanouts=(1, 1, 1, 1, 2, 2, 2), base_length=100, length_jitter=2,
        samples_per_species=12, seed=0))
    train_recs, val_recs, _ = split_dataset(records, (0.8, 0.1, 0.1), seed=0)
    vocab = char_vocab()
    mcfg = _tiny_model(vocab, d_model=64, head_dim=16, d_state=16, max_len=110)
    cfg = TrainConfig(stage="pretrain", max_epochs=1, batch_size=16, seed=0)
    steps = -(-len(train_recs) // cfg.batch_size)
    for run in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        pretrain(train_recs, val_recs, vocab, mcfg, cfg, tmp_path / str(run))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / steps < 650  # a tenth of the count without the settings


_BESTHIT_FAULTS = """
import contextlib, io, resource, sys
from taxossm import cli
args = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(2):
        assert cli.main(args) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        assert cli.main(args) == 0
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator settings")
def test_besthit_calls_do_not_fault_the_heap_top_back_in(tmp_path):
    # `besthit` never trains, so only cli.main makes the settings. Repeated calls
    # in one fresh process over 384 references of about 650 letters: about 3,300
    # minor faults per call without the settings, about 1 with them
    records = synth_generate(SynthConfig(
        rank_fanouts=(1, 1, 2, 2, 2, 3, 4), base_length=650, length_jitter=10,
        samples_per_species=4, seed=0))
    write_fasta(records, tmp_path / "train.fasta")
    write_fasta(records[:4], tmp_path / "test.fasta")
    args = ["besthit", "--out", str(tmp_path / "bh"), "--set", "eval.besthit_k=8",
            "--set", f"paths.train_fasta={tmp_path / 'train.fasta'}",
            "--set", f"paths.test_fasta={tmp_path / 'test.fasta'}"]
    src = str(Path(train.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", _BESTHIT_FAULTS, *args], env=env,
                          capture_output=True, text=True, check=True)
    assert float(done.stdout.split()[-1]) < 500  # about a seventh of the count without them


_LARGE_ARRAY_FAULTS = """
import resource, sys
import numpy as np
from taxossm import train
n_floats, reps = map(int, sys.argv[1:])
x = np.ones(n_floats, dtype=np.float32)
train._keep_heap_top()
for run in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(reps):
        y = x * 2
        z = y + 1
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / reps)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator settings")
@pytest.mark.parametrize("n_floats, reps", [(1 << 18, 50), (12 << 20, 10)],
                         ids=["1MiB", "48MiB"])
def test_large_arrays_come_from_the_heap_right_after_the_settings(n_floats, reps):
    # f32 arrays far above glibc's default mmap threshold of 128 KiB, in a fresh
    # process where nothing else grows the heap: when each array is mapped
    # afresh, about 500 minor faults per iteration at 1 MiB and about 700 at
    # 48 MiB; 0 when they come from the heap and its freed top is kept
    src = str(Path(train.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _LARGE_ARRAY_FAULTS, str(n_floats), str(reps)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert float(done.stdout) < 50


def test_allocator_settings_are_a_silent_no_op_without_mallopt(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    train._keep_heap_top()
    train._keep_heap_top()
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, 1 GiB each, the same each time
    assert calls == 2 * [(-3, 1 << 30), (-1, 1 << 30)]
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert train._keep_heap_top() is None
    monkeypatch.undo()
    train._keep_heap_top()  # the real one, once more
