"""Batch command-line pipeline: one flat parser of a command and its options.

Every subcommand merges a JSON config file, each --set dotted-path override
and --seed into the defaults (unknown or misplaced keys rejected), writes a
resolved-config snapshot next to its outputs, and exits non-zero with one
machine-parseable error line on stderr when something is wrong. The `train`,
`filter` and `synth` defaults are the field defaults of `TrainConfig`,
`FilterConfig` and `SynthConfig`, which validate the values; the `eval`
defaults are the keyword defaults of `evaluation.predict_dataset` and
`evaluation.besthit_train`.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import evaluation, seqdata, ssm, train
from .errors import ConfigError, ParseError
from .records import RANKS
from .seqdata import FilterConfig, SynthConfig
from .taxonomy import build_taxonomy
from .tokenizers import bpe_train, char_vocab, kmer_vocab, load_vocab, save_vocab


def _defaults(cls) -> dict:
    """The field defaults of the dataclass `cls`."""
    return {f.name: f.default for f in fields(cls)}


def _keyword_default(fn, name: str):
    """The default of the keyword parameter `name` of `fn`."""
    return inspect.signature(fn).parameters[name].default


DEFAULT_CONFIG = {
    "paths": {
        "input_fasta": None,
        "train_fasta": None,
        "val_fasta": None,
        "test_fasta": None,
        "vocab": None,
        "checkpoint": None,
        "ttest_input": None,
    },
    "synth": _defaults(SynthConfig),
    "filter": _defaults(FilterConfig),
    "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
    "tokenizer": {"kind": "bpe", "vocab_size": 512, "k": 6},
    # null takes the preset's value; the vocabulary sets vocab_size
    "model": {
        "preset": "tiny",
        **{name: None for name in ssm.BACKBONE_FIELDS if name != "vocab_size"},
        "max_len": _defaults(ssm.ModelConfig)["max_len"],
    },
    # a null stage is the subcommand's
    "train": {**_defaults(train.TrainConfig), "stage": None},
    "eval": {
        "batch_size": _keyword_default(evaluation.predict_dataset, "batch_size"),
        "lift_mode": _keyword_default(evaluation.predict_dataset, "lift_mode"),
        "besthit_k": _keyword_default(evaluation.besthit_train, "k"),
    },
}


def _merge(base: dict, override: dict, path: str = "") -> list[str]:
    """Merge override into base in place; returns the dotted paths it cannot take:
    a key base lacks, or an object where base holds a value, or the reverse."""
    refused = []
    for key, value in override.items():
        if key not in base or isinstance(value, dict) != isinstance(base[key], dict):
            refused.append(path + key)
        elif isinstance(value, dict):
            refused += _merge(base[key], value, f"{path}{key}.")
        else:
            base[key] = value
    return refused


def _read_json_object(path) -> dict:
    """The JSON object in the file at `path`; anything else raises ParseError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"unreadable JSON ({exc})", path=path) from None
    if not isinstance(payload, dict):
        raise ParseError("not a JSON object", path=path)
    return payload


def _set_tree(assignment: str) -> dict:
    """`a.b=v` as the override tree {"a": {"b": v}}; v is JSON, or else a string."""
    dotted, eq, raw = assignment.partition("=")
    if not eq:
        raise ConfigError(f"--set needs KEY=VALUE, got '{assignment}'")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def resolve_config(config_path: str | None, sets: list[str], seed: int | None) -> dict:
    """The defaults merged with the --config file, each --set in order, then --seed."""
    trees = [_read_json_object(config_path)] if config_path else []
    trees += [_set_tree(assignment) for assignment in sets]
    if seed is not None:
        trees.append({section: {"seed": seed} for section in ("synth", "split", "train")})
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    unknown = [dotted for tree in trees for dotted in _merge(config, tree)]
    if unknown:
        raise ConfigError("unknown or misplaced config key(s): " + ", ".join(sorted(unknown)))
    return config


def _model_config(cfg: dict, vocab_size: int, head_mode: str) -> ssm.ModelConfig:
    section = dict(cfg["model"])
    preset = section.pop("preset")
    overrides = {k: v for k, v in section.items() if v is not None}
    return ssm.preset_config(preset, vocab_size, **overrides, head_mode=head_mode)


def _train_config(cfg: dict, stage: str) -> train.TrainConfig:
    section = dict(cfg["train"])
    if section["stage"] is None:
        section["stage"] = stage
    return train.TrainConfig(**section)


def _require_path(cfg: dict, key: str) -> Path:
    value = cfg["paths"][key]
    if not value:
        raise ConfigError(f"paths.{key} must be set for this subcommand")
    return Path(value)


def _snapshot(config: dict, out: Path):
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "resolved_config.json", "w", encoding="ascii") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_vocab(cfg: dict, records):
    kind = cfg["tokenizer"]["kind"]
    if kind == "char":
        return char_vocab()
    if kind == "kmer":
        return kmer_vocab(cfg["tokenizer"]["k"])
    if kind == "bpe":
        return bpe_train([r.sequence for r in records], cfg["tokenizer"]["vocab_size"])
    raise ConfigError(f"tokenizer.kind must be char/kmer/bpe, got '{kind}'")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg, out: Path):
    records = seqdata.synth_generate(SynthConfig(**cfg["synth"]))
    seqdata.write_fasta(records, out / "synth.fasta")
    print(f"wrote {len(records)} records to {out / 'synth.fasta'}")


def cmd_preprocess(cfg, out: Path):
    records = seqdata.parse_fasta(_require_path(cfg, "input_fasta"))
    filtered, stats = seqdata.filter_dataset(records, FilterConfig(**cfg["filter"]))
    tr, va, te = seqdata.split_dataset(
        filtered, tuple(cfg["split"]["fractions"]), cfg["split"]["seed"]
    )
    seqdata.write_fasta(tr, out / "train.fasta")
    seqdata.write_fasta(va, out / "val.fasta")
    seqdata.write_fasta(te, out / "test.fasta")
    with open(out / "filter_stats.json", "w", encoding="ascii") as fh:
        fh.write(stats.to_json() + "\n")
    print(f"kept {stats.output_count}/{stats.input_count}; splits "
          f"{len(tr)}/{len(va)}/{len(te)}")


def cmd_overlap(cfg, out: Path):
    train_recs = seqdata.parse_fasta(_require_path(cfg, "train_fasta"))
    test_recs = seqdata.parse_fasta(_require_path(cfg, "test_fasta"))
    report = seqdata.overlap_report(train_recs, test_recs)
    with open(out / "overlap.json", "w", encoding="ascii") as fh:
        fh.write(report.to_json() + "\n")
    print(report.to_json())


def cmd_tok_train(cfg, out: Path):
    records = seqdata.parse_fasta(_require_path(cfg, "train_fasta"))
    vocab = _build_vocab(cfg, records)
    save_vocab(vocab, out / "vocab.txt")
    print(f"vocab of {len(vocab)} tokens written to {out / 'vocab.txt'}")


def cmd_pretrain(cfg, out: Path, resume: bool = False):
    tcfg = _train_config(cfg, "pretrain")
    train_recs = seqdata.parse_fasta(_require_path(cfg, "train_fasta"))
    val_recs = seqdata.parse_fasta(_require_path(cfg, "val_fasta"))
    vocab = load_vocab(_require_path(cfg, "vocab"))
    mcfg = _model_config(cfg, len(vocab), tcfg.head_mode)
    ckpt = train.pretrain(train_recs, val_recs, vocab, mcfg, tcfg, out, resume=resume)
    print(f"pretraining done: best val loss {ckpt.manifest['best_val_loss']:.4f} "
          f"at epoch {ckpt.manifest['best_epoch']}")


def cmd_finetune(cfg, out: Path, resume: bool = False):
    tcfg = _train_config(cfg, "finetune" if cfg["paths"]["checkpoint"] else "scratch")
    if tcfg.stage == "scratch" and cfg["paths"]["checkpoint"]:
        raise ConfigError("train.stage=scratch trains from no checkpoint; "
                          "unset paths.checkpoint or the stage")
    train_recs = seqdata.parse_fasta(_require_path(cfg, "train_fasta"))
    val_recs = seqdata.parse_fasta(_require_path(cfg, "val_fasta"))
    taxonomy = build_taxonomy(train_recs)
    init_from = None
    mcfg = None
    if tcfg.stage == "finetune":
        init_from = train.Checkpoint(_require_path(cfg, "checkpoint") / "final")
        vocab = init_from.load_vocab()
    else:
        vocab = load_vocab(_require_path(cfg, "vocab"))
        mcfg = _model_config(cfg, len(vocab), tcfg.head_mode)
    ckpt = train.finetune(
        train_recs, val_recs, taxonomy, vocab, tcfg, out,
        model_cfg=mcfg, init_from=init_from, resume=resume,
    )
    print(f"fine-tuning done: best val loss {ckpt.manifest['best_val_loss']:.4f} "
          f"at epoch {ckpt.manifest['best_epoch']}")


def _load_model_bundle(cfg):
    ckpt = train.Checkpoint(_require_path(cfg, "checkpoint") / "final")
    return ckpt.load_model(), ckpt.load_vocab(), ckpt.load_taxonomy()


def cmd_evaluate(cfg, out: Path):
    """Per-rank metrics of one prediction pass over the test set; `ms_per_sample`
    is that pass's forward timing, null when the test set fits in one batch."""
    state, vocab, taxonomy = _load_model_bundle(cfg)
    test_recs = seqdata.parse_fasta(_require_path(cfg, "test_fasta"))
    preds, _, timing = evaluation.predict_dataset(
        state, vocab, taxonomy, test_recs,
        batch_size=cfg["eval"]["batch_size"], lift_mode=cfg["eval"]["lift_mode"],
    )
    report = evaluation.evaluate(preds, [r.label for r in test_recs], taxonomy)
    report.ms_per_sample = None if timing is None else timing.ms_per_sample
    with open(out / "metrics.json", "w", encoding="ascii") as fh:
        fh.write(report.to_json() + "\n")
    with open(out / "metrics.tsv", "w", encoding="ascii") as fh:
        fh.write(report.to_tsv())
    print(report.to_tsv(), end="")


def _write_predictions_tsv(path, records, preds, confs, taxonomy):
    header = ["id"]
    for rank in RANKS:
        header += [f"pred_{rank}", f"conf_{rank}"]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\t".join(header) + "\n")
        for i, rec in enumerate(records):
            row = [rec.id]
            for r in range(len(RANKS)):
                row.append(taxonomy.names_per_rank[r][int(preds[i, r])])
                row.append(f"{confs[i, r]:.6f}")
            fh.write("\t".join(row) + "\n")


def cmd_predict(cfg, out: Path):
    state, vocab, taxonomy = _load_model_bundle(cfg)
    records = seqdata.parse_fasta(_require_path(cfg, "input_fasta"))
    preds, confs, _ = evaluation.predict_dataset(
        state, vocab, taxonomy, records,
        batch_size=cfg["eval"]["batch_size"], lift_mode=cfg["eval"]["lift_mode"],
    )
    _write_predictions_tsv(out / "predictions.tsv", records, preds, confs, taxonomy)
    print(f"wrote {len(records)} predictions to {out / 'predictions.tsv'}")


def cmd_besthit(cfg, out: Path):
    train_recs = seqdata.parse_fasta(_require_path(cfg, "train_fasta"))
    test_recs = seqdata.parse_fasta(_require_path(cfg, "test_fasta"))
    index = evaluation.besthit_train(train_recs, k=cfg["eval"]["besthit_k"])
    header = ["id"] + [f"pred_{rank}" for rank in RANKS] + ["similarity", "low_confidence"]
    with open(out / "besthit.tsv", "w", encoding="ascii") as fh:
        fh.write("\t".join(header) + "\n")
        for rec in test_recs:
            best_i, sim = evaluation.besthit_similarity(index, rec.sequence)
            label = index.labels[best_i]
            row = [rec.id] + [name or "" for name in label.ranks]
            row += [f"{sim:.6f}", str(int(sim < evaluation.LOW_CONFIDENCE))]
            fh.write("\t".join(row) + "\n")
    print(f"wrote best-hit predictions for {len(test_recs)} queries to {out / 'besthit.tsv'}")


def cmd_ttest(cfg, out: Path):
    path = _require_path(cfg, "ttest_input")
    payload = _read_json_object(path)
    samples = [payload.get(key) for key in ("a", "b")]
    if not all(isinstance(s, list) and all(type(x) in (int, float) for x in s) for s in samples):
        raise ParseError("ttest input needs arrays 'a' and 'b' of numbers", path=path)
    result = evaluation.paired_t_test(*samples)
    text = json.dumps(asdict(result), indent=2)
    with open(out / "ttest.json", "w", encoding="ascii") as fh:
        fh.write(text + "\n")
    print(text)


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "overlap": cmd_overlap,
    "tok-train": cmd_tok_train,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "besthit": cmd_besthit,
    "ttest": cmd_ttest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxossm",
        description="Barcode taxonomy pipeline: synthesize, preprocess, train, evaluate.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted-path config override (repeatable)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override synth/split/train seeds at once")
    parser.add_argument("--resume", action="store_true",
                        help="continue pretrain/finetune from the last checkpoint in --out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume and args.command not in ("pretrain", "finetune"):
        parser.error(f"--resume does not apply to {args.command}")
    try:
        config = resolve_config(args.config, args.set, args.seed)
        out = Path(args.out)
        _snapshot(config, out)
        extra = {"resume": True} if args.resume else {}
        train._keep_heap_top()
        COMMANDS[args.command](config, out, **extra)
        return 0
    except Exception as exc:  # single-line machine-parseable failure report
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
