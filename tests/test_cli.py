import json
from pathlib import Path

import pytest

from taxossm import ssm
from taxossm.cli import main, resolve_config
from taxossm.errors import ConfigError
from taxossm.records import BarcodeRecord
from taxossm.seqdata import write_fasta


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# config handling


def test_resolve_config_applies_overrides():
    cfg = resolve_config(None, ["train.lr=8e-5", "model.preset=base"], seed=None)
    assert cfg["train"]["lr"] == 8e-5
    assert cfg["model"]["preset"] == "base"


def test_default_config_is_the_dataclass_defaults():
    # pins every key and default the config sections derive from the dataclasses
    assert resolve_config(None, [], None) == {
        "paths": {"input_fasta": None, "train_fasta": None, "val_fasta": None,
                  "test_fasta": None, "vocab": None, "checkpoint": None, "ttest_input": None},
        "synth": {"rank_fanouts": [1, 1, 2, 2, 2, 2, 3], "base_length": 120,
                  "length_jitter": 8,
                  "mutation_rate_per_rank": [0.0, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03],
                  "samples_per_species": 10, "label_dropout_per_rank": [0.0] * 7, "seed": 0},
        "filter": {"length_sigma": 4.0, "max_ambiguous_fraction": 0.05, "min_class_size": 3},
        "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
        "tokenizer": {"kind": "bpe", "vocab_size": 512, "k": 6},
        "model": {"preset": "tiny", "d_model": None, "n_blocks": None, "head_dim": None,
                  "expand": None, "d_state": None, "conv_kernel": None, "max_len": 1024},
        "train": {"stage": None, "lr": None, "max_epochs": None, "weight_decay": 0.1,
                  "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8, "patience": 3,
                  "batch_size": 32, "seed": 0, "smoothing_mode": "hierarchical",
                  "epsilon": 0.1, "weighted_loss": True, "head_mode": "multi",
                  "wall_clock_limit": None},
        "eval": {"batch_size": 32, "lift_mode": "sum", "besthit_k": 8},
    }


def test_resolve_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"lr": 1, "warmup": 2}, "mystery": {}}))
    with pytest.raises(ConfigError) as err:
        resolve_config(bad, ["synth.typo=1"], seed=None)
    message = str(err.value)
    assert "train.warmup" in message and "mystery" in message and "synth.typo" in message


def test_seed_flag_overrides_all_seeds():
    cfg = resolve_config(None, [], seed=99)
    assert cfg["synth"]["seed"] == cfg["split"]["seed"] == cfg["train"]["seed"] == 99


def test_cli_error_is_single_machine_parseable_line(tmp_path, capsys):
    code = run(["preprocess", "--out", tmp_path / "o"])  # missing input_fasta
    assert code != 0
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    payload = json.loads(err_lines[0])
    assert payload["error"] == "ConfigError"
    assert "input_fasta" in payload["message"]


@pytest.mark.parametrize("args, message", [
    (["ttest", "--out", "OUT", "--resume"], "--resume does not apply to ttest"),
    (["train", "--out", "OUT"], "argument command: invalid choice: 'train'"),
    (["pretrain", "--resume"], "the following arguments are required: --out"),
], ids=["resume_outside_training", "unknown_command", "missing_out"])
def test_usage_errors_exit_2_before_anything_runs(tmp_path, capsys, args, message):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_:
        run([out if a == "OUT" else a for a in args])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_besthit_with_empty_reference_fasta_names_the_error(tmp_path, capsys):
    train_fa = tmp_path / "train.fasta"
    train_fa.write_text("")
    test_fa = tmp_path / "test.fasta"
    write_fasta([BarcodeRecord("q", "ACGTACGTAC")], test_fa)
    code = run(["besthit", "--out", tmp_path / "bh",
                "--set", f"paths.train_fasta={train_fa}",
                "--set", f"paths.test_fasta={test_fa}"])
    assert code != 0
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "EmptyDatasetError"


def test_set_override_lands_in_snapshot(tmp_path):
    out = tmp_path / "synth"
    assert run(["synth", "--out", out, "--set", "synth.samples_per_species=2",
                "--set", "train.lr=8e-5"]) == 0
    snap = read_json(out / "resolved_config.json")
    assert snap["synth"]["samples_per_species"] == 2
    assert snap["train"]["lr"] == 8e-5


# ---------------------------------------------------------------------------
# the whole pipeline on a tiny corpus


TINY = [
    "--set", "synth.rank_fanouts=[1,1,1,1,2,2,2]",
    "--set", "synth.base_length=24",
    "--set", "synth.length_jitter=2",
    "--set", "synth.mutation_rate_per_rank=[0,0.1,0.1,0.1,0.1,0.15,0.02]",
    "--set", "synth.samples_per_species=6",
    "--set", "filter.min_class_size=2",
    "--set", "tokenizer.vocab_size=16",
    "--set", "model.d_model=12",
    "--set", "model.n_blocks=1",
    "--set", "model.head_dim=6",
    "--set", "model.d_state=6",
    "--set", "model.max_len=40",
    "--set", "train.batch_size=8",
    "--set", "train.max_epochs=2",
    "--set", "eval.batch_size=8",
]


def test_pipeline_end_to_end(tmp_path):
    work = tmp_path
    assert run(["synth", "--out", work / "synth", "--seed", "1"] + TINY) == 0
    fasta = work / "synth" / "synth.fasta"
    assert fasta.exists()

    assert run(["preprocess", "--out", work / "prep", "--seed", "1",
                "--set", f"paths.input_fasta={fasta}"] + TINY) == 0
    for split in ("train", "val", "test"):
        assert (work / "prep" / f"{split}.fasta").exists()
    stats = read_json(work / "prep" / "filter_stats.json")
    assert stats["output_count"] > 0

    train_fa = work / "prep" / "train.fasta"
    val_fa = work / "prep" / "val.fasta"
    test_fa = work / "prep" / "test.fasta"

    assert run(["overlap", "--out", work / "ovl",
                "--set", f"paths.train_fasta={train_fa}",
                "--set", f"paths.test_fasta={test_fa}"] + TINY) == 0
    overlap = read_json(work / "ovl" / "overlap.json")
    assert set(overlap) == {"species_total_test", "species_overlap_n", "species_overlap_pct",
                            "barcode_total_test", "barcode_overlap_n", "barcode_overlap_pct"}

    assert run(["tok-train", "--out", work / "tok",
                "--set", f"paths.train_fasta={train_fa}"] + TINY) == 0
    vocab_file = work / "tok" / "vocab.txt"
    assert vocab_file.exists()

    assert run(["pretrain", "--out", work / "pt", "--seed", "1",
                "--set", f"paths.train_fasta={train_fa}",
                "--set", f"paths.val_fasta={val_fa}",
                "--set", f"paths.vocab={vocab_file}"] + TINY) == 0
    assert (work / "pt" / "final" / "manifest.json").exists()

    assert run(["finetune", "--out", work / "ft", "--seed", "1",
                "--set", f"paths.train_fasta={train_fa}",
                "--set", f"paths.val_fasta={val_fa}",
                "--set", f"paths.checkpoint={work / 'pt'}"] + TINY) == 0
    manifest = read_json(work / "ft" / "final" / "manifest.json")
    assert manifest["train_config"]["stage"] == "finetune"

    assert run(["evaluate", "--out", work / "ev",
                "--set", f"paths.checkpoint={work / 'ft'}",
                "--set", f"paths.test_fasta={test_fa}"] + TINY) == 0
    tsv = (work / "ev" / "metrics.tsv").read_text()
    assert tsv.startswith("rank\t") and "species" in tsv

    assert run(["predict", "--out", work / "pred",
                "--set", f"paths.checkpoint={work / 'ft'}",
                "--set", f"paths.input_fasta={test_fa}"] + TINY) == 0
    pred_lines = (work / "pred" / "predictions.tsv").read_text().splitlines()
    header = pred_lines[0].split("\t")
    assert header[0] == "id"
    assert "pred_species" in header and "conf_species" in header
    assert len(pred_lines) > 1

    assert run(["besthit", "--out", work / "bh",
                "--set", f"paths.train_fasta={train_fa}",
                "--set", f"paths.test_fasta={test_fa}",
                "--set", "eval.besthit_k=4"] + TINY) == 0
    assert (work / "bh" / "besthit.tsv").read_text().count("\n") > 1

    ttest_in = work / "ttest_in.json"
    ttest_in.write_text(json.dumps({"a": [1.0, 2.0, 4.0], "b": [0.0, 1.0, 2.0]}))
    assert run(["ttest", "--out", work / "tt",
                "--set", f"paths.ttest_input={ttest_in}"] + TINY) == 0
    tt = read_json(work / "tt" / "ttest.json")
    assert abs(tt["t_statistic"] - 4.0) < 1e-9
    assert tt["degrees_of_freedom"] == 2


def test_bundled_toy_config_pipeline(tmp_path, monkeypatch):
    toy = Path(__file__).resolve().parent.parent / "configs" / "toy.json"
    work = tmp_path
    assert run(["synth", "--config", toy, "--out", work / "synth"]) == 0
    fasta = work / "synth" / "synth.fasta"
    assert run(["preprocess", "--config", toy, "--out", work / "prep",
                "--set", f"paths.input_fasta={fasta}"]) == 0
    assert run(["tok-train", "--config", toy, "--out", work / "tok",
                "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}"]) == 0
    assert run(["finetune", "--config", toy, "--out", work / "ft",
                "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}",
                "--set", f"paths.val_fasta={work / 'prep' / 'val.fasta'}",
                "--set", f"paths.vocab={work / 'tok' / 'vocab.txt'}"]) == 0
    test_fa = work / "prep" / "test.fasta"
    assert run(["evaluate", "--config", toy, "--out", work / "ev",
                "--set", f"paths.checkpoint={work / 'ft'}",
                "--set", f"paths.test_fasta={test_fa}"]) == 0
    assert (work / "ev" / "metrics.tsv").exists()
    n_test = test_fa.read_text().count(">")
    assert n_test <= json.loads(toy.read_text())["eval"]["batch_size"]
    # one batch: no batch after the warm-up to time
    assert read_json(work / "ev" / "metrics.json")["ms_per_sample"] is None

    forwards = []
    model_forward = ssm.model_forward
    monkeypatch.setattr(ssm, "model_forward", lambda *a: forwards.append(a) or model_forward(*a))
    assert run(["evaluate", "--config", toy, "--out", work / "ev2",
                "--set", f"paths.checkpoint={work / 'ft'}",
                "--set", f"paths.test_fasta={test_fa}", "--set", "eval.batch_size=2"]) == 0
    assert [len(a[1]) for a in forwards] == [2] * (n_test // 2) + [1] * (n_test % 2)
    assert read_json(work / "ev2" / "metrics.json")["ms_per_sample"] > 0.0


def test_rerun_is_byte_identical(tmp_path):
    args = ["synth", "--seed", "7"] + TINY
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    fa = (tmp_path / "a" / "synth.fasta").read_bytes()
    fb = (tmp_path / "b" / "synth.fasta").read_bytes()
    assert fa == fb
    ca = (tmp_path / "a" / "resolved_config.json").read_bytes()
    cb = (tmp_path / "b" / "resolved_config.json").read_bytes()
    assert ca == cb


def test_finetune_rerun_is_byte_identical(tmp_path):
    work = tmp_path
    assert run(["synth", "--out", work / "synth", "--seed", "5"] + TINY) == 0
    assert run(["preprocess", "--out", work / "prep", "--seed", "5",
                "--set", f"paths.input_fasta={work / 'synth' / 'synth.fasta'}"] + TINY) == 0
    assert run(["tok-train", "--out", work / "tok",
                "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}"] + TINY) == 0
    ft_args = ["finetune", "--seed", "5",
               "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}",
               "--set", f"paths.val_fasta={work / 'prep' / 'val.fasta'}",
               "--set", f"paths.vocab={work / 'tok' / 'vocab.txt'}",
               "--set", "train.stage=scratch"] + TINY
    assert run(ft_args + ["--out", work / "ft1"]) == 0
    assert run(ft_args + ["--out", work / "ft2"]) == 0
    final1, final2 = work / "ft1" / "final", work / "ft2" / "final"
    files = sorted(p.relative_to(final1) for p in final1.rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (final1 / rel).read_bytes() == (final2 / rel).read_bytes(), rel


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_cli_resume_matches_uninterrupted_run(tmp_path, command):
    work = tmp_path
    assert run(["synth", "--out", work / "synth", "--seed", "3"] + TINY) == 0
    assert run(["preprocess", "--out", work / "prep", "--seed", "3",
                "--set", f"paths.input_fasta={work / 'synth' / 'synth.fasta'}"] + TINY) == 0
    assert run(["tok-train", "--out", work / "tok",
                "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}"] + TINY) == 0
    args = [command, "--seed", "3",
            "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}",
            "--set", f"paths.val_fasta={work / 'prep' / 'val.fasta'}",
            "--set", f"paths.vocab={work / 'tok' / 'vocab.txt'}"] + TINY
    if command == "finetune":
        args += ["--set", "train.stage=scratch"]
    assert run(args + ["--out", work / "full"]) == 0
    assert run(args + ["--out", work / "resumed", "--set", "train.max_epochs=1"]) == 0
    assert read_json(work / "resumed" / "final" / "manifest.json")["epoch"] == 1
    epoch1_log = (work / "resumed" / "metrics.jsonl").read_text().splitlines()
    assert run(args + ["--out", work / "resumed", "--set", "train.max_epochs=2",
                       "--resume"]) == 0

    full, resumed = work / "full" / "final", work / "resumed" / "final"
    assert read_json(resumed / "manifest.json")["history"] == read_json(
        full / "manifest.json")["history"]
    files = sorted(p.relative_to(full) for p in full.rglob("*.bin"))
    assert files
    for rel in files:
        assert (full / rel).read_bytes() == (resumed / rel).read_bytes(), rel
    # epoch 1 ran once: its log lines, wall times included, are the first run's
    log = (work / "resumed" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line)["epoch"] for line in log] == [1, 1, 2, 2]
    assert log[:2] == epoch1_log


@pytest.mark.parametrize("manifest", [b'{"model_config": {"vocab_si', b"[1, 2]", b"{\xff}",
                                      b'{"stage": "finetune"}'],
                         ids=["torn", "not_an_object", "non_ascii", "missing_key"])
def test_predict_with_a_corrupt_checkpoint_manifest_names_it(tmp_path, capsys, manifest):
    final = tmp_path / "ckpt" / "final"
    final.mkdir(parents=True)
    (final / "manifest.json").write_bytes(manifest)
    bare = tmp_path / "bare.fasta"
    bare.write_text(">q1\nACGTACGTACGTACGTACGTACGT\n")
    code = run(["predict", "--out", tmp_path / "pred",
                "--set", f"paths.checkpoint={tmp_path / 'ckpt'}",
                "--set", f"paths.input_fasta={bare}"] + TINY)
    assert code != 0
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ParseError"
    assert str(final / "manifest.json") in payload["message"]


def test_predict_on_unlabelled_fasta(tmp_path):
    work = tmp_path
    assert run(["synth", "--out", work / "synth", "--seed", "2"] + TINY) == 0
    fasta = work / "synth" / "synth.fasta"
    assert run(["preprocess", "--out", work / "prep", "--seed", "2",
                "--set", f"paths.input_fasta={fasta}"] + TINY) == 0
    assert run(["tok-train", "--out", work / "tok",
                "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}"] + TINY) == 0
    assert run(["finetune", "--out", work / "ft", "--seed", "2",
                "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}",
                "--set", f"paths.val_fasta={work / 'prep' / 'val.fasta'}",
                "--set", f"paths.vocab={work / 'tok' / 'vocab.txt'}",
                "--set", "train.stage=scratch"] + TINY) == 0

    bare = work / "bare.fasta"
    bare.write_text(">q1\nACGTACGTACGTACGTACGTACGT\n>q2\nTTTTACGTACGTACGTACGTGGGG\n")
    assert run(["predict", "--out", work / "pred",
                "--set", f"paths.checkpoint={work / 'ft'}",
                "--set", f"paths.input_fasta={bare}"] + TINY) == 0
    lines = (work / "pred" / "predictions.tsv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split("\t")[0] == "q1"


@pytest.fixture(scope="module")
def multi_head_run(tmp_path_factory):
    """A scratch-trained multi-head checkpoint directory and a FASTA to predict."""
    work = tmp_path_factory.mktemp("multi_head")
    assert run(["synth", "--out", work / "synth", "--seed", "4"] + TINY) == 0
    assert run(["preprocess", "--out", work / "prep", "--seed", "4",
                "--set", f"paths.input_fasta={work / 'synth' / 'synth.fasta'}"] + TINY) == 0
    assert run(["tok-train", "--out", work / "tok",
                "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}"] + TINY) == 0
    assert run(["finetune", "--out", work / "ft", "--seed", "4",
                "--set", f"paths.train_fasta={work / 'prep' / 'train.fasta'}",
                "--set", f"paths.val_fasta={work / 'prep' / 'val.fasta'}",
                "--set", f"paths.vocab={work / 'tok' / 'vocab.txt'}",
                "--set", "train.stage=scratch"] + TINY) == 0
    return work / "ft", work / "prep" / "test.fasta"


@pytest.mark.parametrize("setting, message", [
    ("eval.batch_size=-1", "batch_size must be >= 1, got -1"),
    ("eval.batch_size=0", "batch_size must be >= 1, got 0"),
    ("eval.lift_mode=bogus", "lift_mode must be one of ('sum', 'argmax_path'), got 'bogus'"),
], ids=["negative_batch", "zero_batch", "unknown_lift_mode"])
def test_predict_refuses_bad_eval_settings(tmp_path, capsys, multi_head_run, setting, message):
    checkpoint, fasta = multi_head_run
    capsys.readouterr()
    code = run(["predict", "--out", tmp_path / "pred",
                "--set", f"paths.checkpoint={checkpoint}",
                "--set", f"paths.input_fasta={fasta}"] + TINY + ["--set", setting])
    assert code == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0]) == {"error": "ConfigError", "message": message}
    assert not (tmp_path / "pred" / "predictions.tsv").exists()
