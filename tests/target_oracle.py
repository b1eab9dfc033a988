"""One-record reference forms of the training targets and the weighted loss.

`batch_targets` and `weighted_cross_entropy` build a whole batch at once; these
loops build one record at a time and serve as the oracles the batch forms must
match bitwise.
"""
import numpy as np

from taxossm import numcore as nc
from taxossm import ssm
from taxossm.numcore import Tensor
from taxossm.records import N_RANKS, BarcodeRecord, make_label
from taxossm.seqdata import SynthConfig, synth_generate
from taxossm.taxonomy import build_taxonomy

from toydata import toy_records


def reference_smooth_at_rank(taxo, rank, y, mode, epsilon):
    """Smoothed distribution at `rank` around its class y, for one record."""
    n = taxo.n_classes(rank)
    q = np.zeros(n, dtype=np.float64)
    if mode == "none" or epsilon == 0.0 or n == 1:
        q[y] = 1.0
        return q
    if mode == "standard":
        q[:] = epsilon / (n - 1)
        q[y] = 1.0 - epsilon
        return q
    anc = taxo.ancestors[rank]
    s = (anc == anc[y]).sum(axis=1).astype(np.float64)
    s[y] = 0.0
    total = s.sum()
    if total == 0.0:
        q[:] = epsilon / (n - 1)
    else:
        q[:] = epsilon * s / total
    q[y] = 1.0 - epsilon
    return q


def reference_target(taxo, label, mode, epsilon):
    """(per_rank, true_index) of one label: the smoothed vector at its deepest
    rank, lifted rank by rank through the parent chain; None below its depth."""
    per_rank = [None] * N_RANKS
    true_index = [None] * N_RANKS
    if label.depth == 0:
        return per_rank, true_index
    deepest = label.depth - 1
    y = taxo.index_per_rank[deepest][label.ranks[deepest]]
    per_rank[deepest] = reference_smooth_at_rank(taxo, deepest, y, mode, epsilon)
    for r in range(deepest - 1, -1, -1):
        per_rank[r] = np.bincount(
            taxo.parent[r + 1], weights=per_rank[r + 1], minlength=taxo.n_classes(r))
    true_index[:label.depth] = taxo.ancestors[deepest][y].tolist()
    return per_rank, true_index


def reference_weighted_cross_entropy(logits, refs, weights, head_mode):
    """The weighted loss as a per-record loop over `reference_target` outputs."""
    ranks = ssm.head_ranks(head_mode)
    n = len(refs)
    dtype = logits[0].data.dtype
    n_ranks_per_sample = np.zeros(n)
    for i, (per_rank, _) in enumerate(refs):
        n_ranks_per_sample[i] = sum(1 for r in ranks if per_rank[r] is not None)
    denom = np.maximum(n_ranks_per_sample, 1.0)

    total = Tensor(np.asarray(0.0, dtype=dtype))
    for head, r in enumerate(ranks):
        q = np.zeros(logits[head].data.shape, dtype=dtype)
        scale = np.zeros(n, dtype=dtype)
        for i, (per_rank, true_index) in enumerate(refs):
            if per_rank[r] is None:
                continue
            q[i] = per_rank[r]
            w = 1.0 if weights is None else float(weights.per_rank[r][true_index[r]])
            scale[i] = w / denom[i]
        logp = nc.log_softmax(logits[head], axis=-1)
        contrib = nc.tsum(nc.mul(nc.mul(logp, Tensor(q)), Tensor(scale[:, None])))
        total = nc.sub(total, contrib)
    n_fully_masked = int((n_ranks_per_sample == 0).sum())
    return nc.mul(total, Tensor(np.asarray(1.0 / n, dtype=dtype))), n_fully_masked


def _taxonomy_of(labels):
    return build_taxonomy([BarcodeRecord(f"r{i}", "ACGT", lab) for i, lab in enumerate(labels)])


def two_kingdom_case():
    """Two kingdoms of one lineage each: every class is alone in its kingdom at
    its rank, so hierarchical smoothing finds no shared ancestor to weigh by."""
    lineages = [make_label(*(f"{r}_{k}" for r in range(N_RANKS))) for k in range(2)]
    return _taxonomy_of(lineages), lineages + [lineages[1].truncated(4), make_label()]


def oracle_cases(n_random=8):
    """(taxonomy, labels) pairs whose labels mix every depth, blank ones included."""
    for seed in range(n_random):
        rng = np.random.default_rng(seed)
        fanouts = tuple(int(rng.integers(1, 3)) for _ in range(5)) + (
            int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        records = synth_generate(SynthConfig(
            rank_fanouts=fanouts, base_length=20, length_jitter=0,
            samples_per_species=2, seed=seed,
            label_dropout_per_rank=(0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.2)))
        yield build_taxonomy(records), [r.label for r in records] + [make_label()]
    toy = [r.label for r in toy_records()]  # ranks 0-4 hold one class each
    yield _taxonomy_of(toy), toy + [toy[0].truncated(3), toy[2].truncated(6), make_label()]
    yield two_kingdom_case()
    kingdoms = [make_label("k0")] + [make_label("k1")] * 4  # ranks 1-6 hold no class
    yield _taxonomy_of(kingdoms), kingdoms + [make_label()]
