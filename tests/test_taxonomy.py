import json
import tracemalloc

import numpy as np
import pytest

from taxossm.errors import ConfigError, ParseError, ShapeError, TaxonomyConflictError
from taxossm.records import BarcodeRecord, N_RANKS, TaxonomicLabel, make_label
from taxossm.seqdata import SynthConfig, synth_generate
from taxossm.taxonomy import (
    LIFT_MODES,
    SMOOTHING_MODES,
    Taxonomy,
    batch_targets,
    build_taxonomy,
    class_weights,
    lift_species_probs,
    smooth_target,
    truncate_to_known,
)

from target_oracle import oracle_cases, reference_target, two_kingdom_case
from toydata import toy_records


def walk_ancestor(taxo, rank, index, target_rank):
    """Index of the target_rank ancestor of class `index` at `rank`, by walking `parent`."""
    for r in range(rank, target_rank, -1):
        index = int(taxo.parent[r][index])
    return index


def shared_ancestor_depth(taxo, rank, a, b):
    """Depth of the deepest ancestor rank two classes at `rank` share, kingdom = 1.

    Zero when they share nothing (distinct kingdoms); at most `rank` for
    distinct classes at 0-based rank `rank`.
    """
    if a == b:
        return rank + 1
    pa = [walk_ancestor(taxo, rank, a, k) for k in range(rank + 1)]
    pb = [walk_ancestor(taxo, rank, b, k) for k in range(rank + 1)]
    depth = 0
    for x, y in zip(pa, pb):
        if x != y:
            break
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# building


def test_build_toy_counts(toy_taxonomy):
    assert toy_taxonomy.class_counts() == [1, 1, 1, 1, 1, 2, 3]
    anc = toy_taxonomy.ancestors[6]
    assert anc.shape == (3, N_RANKS)
    for r in range(N_RANKS):
        assert ((anc[:, r] >= 0) & (anc[:, r] < toy_taxonomy.n_classes(r))).all()


def test_build_partial_label_contributes_to_shallow_ranks():
    records = toy_records() + [BarcodeRecord("p", "ACGT", make_label("k", "p", "c", "o", "f", "g1"))]
    taxo = build_taxonomy(records)
    assert taxo.freq_per_rank[5][taxo.index_per_rank[5]["g1"]] == 3
    assert taxo.class_counts()[6] == 3  # no new species registered


def test_build_rejects_conflicting_parentage():
    records = [
        BarcodeRecord("a", "ACGT", make_label("k", "p", "c", "o", "f1", "g1", "s1")),
        BarcodeRecord("b", "ACGT", make_label("k", "p", "c", "o", "f2", "g1", "s2")),
    ]
    with pytest.raises(TaxonomyConflictError) as err:
        build_taxonomy(records)
    assert "f1" in str(err.value) and "f2" in str(err.value)


def test_build_rejects_prefix_violation():
    bad = TaxonomicLabel(("k", None, "c", None, None, None, None))
    with pytest.raises(TaxonomyConflictError):
        build_taxonomy([BarcodeRecord("x", "ACGT", bad)])


def test_ancestor_paths(toy_taxonomy):
    ia = toy_taxonomy.index_per_rank[6]["A"]
    ic = toy_taxonomy.index_per_rank[6]["C"]
    g1, g2 = toy_taxonomy.index_per_rank[5]["g1"], toy_taxonomy.index_per_rank[5]["g2"]
    anc = toy_taxonomy.ancestors[6]
    assert anc[ia, 5] == walk_ancestor(toy_taxonomy, 6, ia, 5) == g1
    assert anc[ic, 5] == walk_ancestor(toy_taxonomy, 6, ic, 5) == g2
    assert anc[ia].tolist() == [0, 0, 0, 0, 0, 0, ia]


def test_ancestors_match_parent_walk_over_random_taxonomies():
    for seed in range(20):
        taxo, _, _ = _random_taxonomy_and_labels(seed)
        for r in range(N_RANKS):
            assert taxo.ancestors[r].shape == (taxo.n_classes(r), r + 1)
            assert taxo.ancestors[r].dtype == np.int64
            for c in range(taxo.n_classes(r)):
                assert taxo.ancestors[r][c].tolist() == [
                    walk_ancestor(taxo, r, c, k) for k in range(r + 1)]


def test_taxonomy_json_round_trip(toy_taxonomy):
    back = Taxonomy.from_json(toy_taxonomy.to_json())
    assert back.names_per_rank == toy_taxonomy.names_per_rank
    assert all(np.array_equal(a, b) for a, b in zip(back.parent, toy_taxonomy.parent))
    assert all(np.array_equal(a, b)
               for a, b in zip(back.freq_per_rank, toy_taxonomy.freq_per_rank))
    assert all(np.array_equal(a, b) for a, b in zip(back.ancestors, toy_taxonomy.ancestors))


def _corrupt(payload, case):
    if case == "parent out of range":
        payload["parent"][6][1] = 2
    elif case == "negative parent":
        payload["parent"][6][0] = -1
    elif case == "parent short":
        payload["parent"][6].pop()
    elif case == "freq short":
        payload["freq_per_rank"][5].pop()
    elif case == "kingdom has a parent":
        payload["parent"][0] = [0]
    elif case == "rank missing":
        for key in payload:
            payload[key].pop()
    elif case == "parent not an integer":
        payload["parent"][3] = ["x"]
    elif case == "parent a float":
        payload["parent"][6] = [0.5, 0, 1]
    elif case == "name repeated":
        payload["names_per_rank"][6][2] = "A"
    return json.dumps(payload)


@pytest.mark.parametrize("case", [
    "parent out of range",
    "negative parent",
    "parent short",
    "freq short",
    "kingdom has a parent",
    "rank missing",
    "parent not an integer",
    "parent a float",
    "name repeated",
])
def test_taxonomy_load_rejects_corrupt_file(toy_taxonomy, tmp_path, case):
    path = tmp_path / "taxonomy.json"
    path.write_text(_corrupt(json.loads(toy_taxonomy.to_json()), case))
    with pytest.raises(ParseError) as err:
        Taxonomy.load(path)
    assert err.value.path == path


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", "{}"])
def test_taxonomy_load_rejects_malformed_json(tmp_path, text):
    path = tmp_path / "taxonomy.json"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        Taxonomy.load(path)
    assert err.value.path == path


def test_taxonomy_load_rejects_non_ascii_bytes(toy_taxonomy, tmp_path):
    path = tmp_path / "taxonomy.json"
    toy_taxonomy.save(path)
    path.write_bytes(path.read_bytes().replace(b'"g1"', b'"g\xc3\xa9"'))
    with pytest.raises(ParseError) as err:
        Taxonomy.load(path)
    assert err.value.path == path


# ---------------------------------------------------------------------------
# class weights


def _weights_for(freqs):
    records = []
    for i, f in enumerate(freqs):
        for j in range(f):
            records.append(BarcodeRecord(f"r{i}_{j}", "ACGT", make_label(f"k{i}")))
    taxo = build_taxonomy(records)
    return class_weights(taxo).per_rank[0]


def test_weights_worked_example():
    w = _weights_for([1, 4])
    assert np.allclose(w, [4 / 3, 2 / 3], atol=1e-12)


def test_weights_equal_frequencies_are_one():
    assert np.allclose(_weights_for([5, 5, 5]), 1.0)


def test_weights_preserve_inverse_sqrt_ratios():
    w = _weights_for([1, 4, 9])
    assert np.allclose(w / w[2], [3.0, 1.5, 1.0])  # ratios 6:3:2
    assert abs(w.mean() - 1.0) < 1e-12


def test_weights_reject_zero_frequency(toy_taxonomy):
    toy_taxonomy.freq_per_rank[6][0] = 0
    with pytest.raises(ConfigError):
        class_weights(toy_taxonomy)


# ---------------------------------------------------------------------------
# smoothing


def test_smooth_none_is_one_hot(toy_taxonomy):
    tgt = smooth_target(toy_taxonomy, toy_records()[0].label, "none", 0.3)
    assert tgt.mask == (True,) * 7
    assert np.array_equal(tgt.per_rank[6], [1.0, 0.0, 0.0])
    assert np.array_equal(tgt.per_rank[5], [1.0, 0.0])


def test_smooth_hierarchical_toy_values(toy_taxonomy):
    # A and B share the genus (s=6), C only the family (s=5): mass 0.3 split 6:5
    tgt = smooth_target(toy_taxonomy, toy_records()[0].label, "hierarchical", 0.3)
    expected = np.array([0.7, 0.3 * 6 / 11, 0.3 * 5 / 11])
    assert np.abs(tgt.per_rank[6] - expected).max() < 1e-12
    lifted = tgt.per_rank[5]
    assert np.abs(lifted - np.array([0.7 + 0.3 * 6 / 11, 0.3 * 5 / 11])).max() < 1e-12
    assert abs(lifted.sum() - 1.0) < 1e-12
    assert tgt.true_index[6] == 0 and tgt.true_index[5] == 0


def test_smooth_standard_splits_uniformly(toy_taxonomy):
    tgt = smooth_target(toy_taxonomy, toy_records()[0].label, "standard", 0.3)
    assert np.abs(tgt.per_rank[6] - np.array([0.7, 0.15, 0.15])).max() < 1e-12


def test_smooth_epsilon_zero_is_bitwise_one_hot(toy_taxonomy):
    label = toy_records()[1].label
    base = smooth_target(toy_taxonomy, label, "none", 0.0)
    for mode in ("standard", "hierarchical"):
        tgt = smooth_target(toy_taxonomy, label, mode, 0.0)
        for r in range(N_RANKS):
            assert np.array_equal(tgt.per_rank[r], base.per_rank[r])


def test_smooth_partial_label_masks_deeper_ranks(toy_taxonomy):
    tgt = smooth_target(toy_taxonomy, make_label("k", "p", "c"), "hierarchical", 0.2)
    assert tgt.mask == (True, True, True, False, False, False, False)
    assert tgt.per_rank[6] is None
    assert np.array_equal(tgt.per_rank[2], [1.0])  # single class: nowhere to smooth


def test_smooth_monotone_in_shared_ancestor_depth(toy_taxonomy):
    tgt = smooth_target(toy_taxonomy, toy_records()[0].label, "hierarchical", 0.4)
    q = tgt.per_rank[6]
    sB = shared_ancestor_depth(toy_taxonomy, 6, 1, 0)
    sC = shared_ancestor_depth(toy_taxonomy, 6, 2, 0)
    assert sB > sC
    assert q[1] > q[2]


def test_smooth_rejects_bad_inputs(toy_taxonomy):
    with pytest.raises(ConfigError):
        smooth_target(toy_taxonomy, toy_records()[0].label, "hierarchical", 1.0)
    with pytest.raises(ConfigError):
        smooth_target(toy_taxonomy, make_label("nope"), "none", 0.0)
    with pytest.raises(ConfigError):
        smooth_target(toy_taxonomy, toy_records()[0].label, "fancy", 0.1)


def _random_taxonomy_and_labels(seed):
    rng = np.random.default_rng(seed)
    fanouts = tuple(int(rng.integers(1, 3)) for _ in range(5)) + (
        int(rng.integers(1, 4)), int(rng.integers(2, 4)))
    records = synth_generate(SynthConfig(
        rank_fanouts=fanouts, base_length=20, length_jitter=0,
        samples_per_species=2, seed=seed,
        label_dropout_per_rank=(0, 0, 0, 0.1, 0.1, 0.1, 0.2)))
    labelled = [r for r in records if r.label.depth > 0]
    return build_taxonomy(records), labelled, rng


def test_smooth_targets_sum_to_one_over_random_taxonomies():
    checked = 0
    seed = 0
    while checked < 1000:
        taxo, labelled, rng = _random_taxonomy_and_labels(seed)
        seed += 1
        for rec in labelled:
            mode = ("none", "standard", "hierarchical")[checked % 3]
            eps = float(rng.uniform(0.0, 0.9))
            tgt = smooth_target(taxo, rec.label, mode, eps)
            for r in range(N_RANKS):
                if tgt.mask[r]:
                    assert abs(tgt.per_rank[r].sum() - 1.0) < 1e-9
                    assert tgt.per_rank[r].min() >= 0.0
            checked += 1
            if checked >= 1000:
                break


def test_batch_targets_match_the_one_record_oracle():
    single_class_starts = 0
    for case, (taxo, labels) in enumerate(oracle_cases()):
        rng = np.random.default_rng(case)
        for mode in SMOOTHING_MODES:
            for eps in (0.0, float(rng.uniform(0.05, 0.9))):
                batch = [labels[i] for i in rng.permutation(len(labels))]
                index, dists = batch_targets([smooth_target(taxo, lab, mode, eps) for lab in batch])
                assert index.shape == (len(batch), N_RANKS)
                for r in range(N_RANKS):
                    assert dists[r].shape == (len(batch), taxo.n_classes(r))
                for i, label in enumerate(batch):
                    per_rank, true_index = reference_target(taxo, label, mode, eps)
                    for r in range(N_RANKS):
                        if per_rank[r] is None:
                            assert index[i, r] == -1 and not dists[r][i].any()
                        else:
                            assert index[i, r] == true_index[r]
                            assert np.array_equal(dists[r][i], per_rank[r]), (case, mode, i, r)
                    depth = label.depth
                    single_class_starts += depth > 0 and eps > 0 and taxo.n_classes(depth - 1) == 1
    assert single_class_starts > 0


def test_hierarchical_smoothing_is_uniform_where_no_class_shares_the_kingdom():
    taxo, labels = two_kingdom_case()
    for label in labels[:3]:
        hier = smooth_target(taxo, label, "hierarchical", 0.3).per_rank
        std = smooth_target(taxo, label, "standard", 0.3).per_rank
        for r in range(label.depth):
            assert np.array_equal(hier[r], std[r])
            assert np.array_equal(hier[r], [0.7, 0.3] if label.ranks[0] == "0_0" else [0.3, 0.7])


def test_batch_targets_refuse_a_mixed_batch(toy_taxonomy):
    label = toy_records()[0].label
    base = smooth_target(toy_taxonomy, label, "hierarchical", 0.1)
    twin = build_taxonomy(toy_records())  # equal classes, another object
    for other in (smooth_target(twin, label, "hierarchical", 0.1),
                  smooth_target(toy_taxonomy, label, "standard", 0.1),
                  smooth_target(toy_taxonomy, label, "hierarchical", 0.2)):
        with pytest.raises(ConfigError, match="share one taxonomy"):
            batch_targets([base, other])
    index, _ = batch_targets([base, smooth_target(toy_taxonomy, label, "hierarchical", 0.1)])
    assert index.tolist() == [[0] * N_RANKS] * 2


# ---------------------------------------------------------------------------
# lift consistency (brute force over species multiplicities)


def brute_force_rank_target(taxo, rank, label, epsilon):
    """Rank-r hierarchical target built directly: every species under each
    rank-r class keeps its shared-ancestor-depth share of the epsilon mass."""
    y_species = taxo.index_per_rank[6][label.ranks[6]]
    n_species = taxo.n_classes(6)
    s = np.array([0.0 if c == y_species else shared_ancestor_depth(taxo, 6, c, y_species)
                  for c in range(n_species)])
    if s.sum() > 0:
        q_species = epsilon * s / s.sum()
    else:
        q_species = np.full(n_species, epsilon / max(n_species - 1, 1))
    q_species[y_species] = 1.0 - epsilon
    out = np.zeros(taxo.n_classes(rank))
    for c in range(n_species):
        out[walk_ancestor(taxo, 6, c, rank)] += q_species[c]
    return out


def test_lift_consistency_on_toy(toy_taxonomy):
    label = toy_records()[0].label
    tgt = smooth_target(toy_taxonomy, label, "hierarchical", 0.3)
    for r in range(N_RANKS):
        direct = brute_force_rank_target(toy_taxonomy, r, label, 0.3)
        assert np.abs(tgt.per_rank[r] - direct).max() < 1e-12


def test_lift_consistency_on_random_taxonomies():
    for seed in range(5):
        taxo, labelled, _ = _random_taxonomy_and_labels(seed + 100)
        for rec in labelled:
            if rec.label.depth < N_RANKS:
                continue
            tgt = smooth_target(taxo, rec.label, "hierarchical", 0.25)
            for r in range(N_RANKS):
                direct = brute_force_rank_target(taxo, r, rec.label, 0.25)
                assert np.abs(tgt.per_rank[r] - direct).max() < 1e-12


# ---------------------------------------------------------------------------
# lifting species probabilities


def test_lift_one_hot_gives_ancestor_path(toy_taxonomy):
    probs = np.array([0.0, 1.0, 0.0])  # species B
    for mode in ("sum", "argmax_path"):
        lifted = lift_species_probs(toy_taxonomy, probs, mode)
        assert np.array_equal(lifted[5], [1.0, 0.0])  # genus g1
        assert np.array_equal(lifted[6], probs)
        assert np.array_equal(lifted[0], [1.0])


def test_lift_uniform_prob_sum(toy_taxonomy):
    lifted = lift_species_probs(toy_taxonomy, np.full(3, 1 / 3), "sum")
    assert np.abs(lifted[5] - np.array([2 / 3, 1 / 3])).max() < 1e-12


def test_lift_modes_can_disagree(toy_taxonomy):
    probs = np.array([0.4, 0.35, 0.25])
    by_sum = lift_species_probs(toy_taxonomy, probs, "sum")
    assert np.abs(by_sum[5] - np.array([0.75, 0.25])).max() < 1e-12
    by_path = lift_species_probs(toy_taxonomy, probs, "argmax_path")
    assert np.array_equal(by_path[5], [1.0, 0.0])


def test_lift_preserves_mass(toy_taxonomy, rng):
    for _ in range(20):
        p = rng.random(3)
        p /= p.sum()
        for vec in lift_species_probs(toy_taxonomy, p, "sum"):
            assert abs(vec.sum() - 1.0) < 1e-12


def test_lift_argmax_path_is_consistent():
    taxo, _, rng = _random_taxonomy_and_labels(7)
    n = taxo.n_classes(6)
    for _ in range(20):
        p = rng.random(n)
        p /= p.sum()
        lifted = lift_species_probs(taxo, p, "argmax_path")
        idxs = [int(v.argmax()) for v in lifted]
        for r in range(1, N_RANKS):
            assert int(taxo.parent[r][idxs[r]]) == idxs[r - 1]


def test_lift_rejects_bad_inputs(toy_taxonomy):
    with pytest.raises(ShapeError):
        lift_species_probs(toy_taxonomy, np.array([0.5, 0.5]), "sum")
    with pytest.raises(ConfigError):
        lift_species_probs(toy_taxonomy, np.array([0.5, 0.5, 0.0]) * 1.5, "sum")
    for bad in ([np.nan, 0.5, 0.5], [1.5, -0.5, 0.0], [np.inf, 0.5, 0.5]):
        for mode in ("sum", "argmax_path"):
            with pytest.raises(ConfigError):
                lift_species_probs(toy_taxonomy, np.array(bad), mode)


def _wide_records(n_species=10_000):
    """One record per species: four species to a genus, ten genera to a family,
    five families to an order, five orders to a class, two classes to a phylum."""
    records = []
    for s in range(n_species):
        g = s // 4
        f = g // 10
        o = f // 5
        c = o // 5
        records.append(BarcodeRecord(f"r{s}", "ACGT", make_label(
            "k", f"p{c // 2}", f"c{c}", f"o{o}", f"f{f}", f"g{g}", f"s{s}")))
    return records


def test_wide_taxonomy_builds_no_species_by_class_array():
    # a dense species x genus float64 matrix alone would take 10^4 * 2,500 * 8 B = 191 MiB
    records = _wide_records()
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        taxo = build_taxonomy(records)
        for i in rng.integers(0, len(records), size=200):
            tgt = smooth_target(taxo, records[i].label, "hierarchical", 0.1)
            assert all(abs(q.sum() - 1.0) < 1e-9 for q in tgt.per_rank)
        p = rng.random(taxo.n_classes(6))
        p /= p.sum()
        for mode in LIFT_MODES:
            assert all(abs(v.sum() - 1.0) < 1e-9 for v in lift_species_probs(taxo, p, mode))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert taxo.class_counts() == [1, 5, 10, 50, 250, 2_500, 10_000]
    assert peak < 32 * 2**20
    for s in rng.choice(10_000, size=100, replace=False):
        assert taxo.ancestors[6][s].tolist() == [
            walk_ancestor(taxo, 6, int(s), k) for k in range(N_RANKS)]


def test_wide_targets_hold_class_indices_not_dense_vectors():
    # dense float64 vectors at every rank took 12,816 values (100 KiB) per
    # record: 990 MiB for these 10^4 targets
    records = _wide_records()
    taxo = build_taxonomy(records)
    tracemalloc.start()
    try:
        targets = [smooth_target(taxo, rec.label, "hierarchical", 0.1) for rec in records]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    assert targets[-1].true_index == tuple(taxo.ancestors[6][9_999].tolist())


# ---------------------------------------------------------------------------
# unknown-class truncation helper


def test_truncate_to_known(toy_taxonomy):
    unseen = make_label("k", "p", "c", "o", "f", "g1", "Z")
    assert truncate_to_known(toy_taxonomy, unseen).depth == 6
    alien = make_label("other")
    assert truncate_to_known(toy_taxonomy, alien).depth == 0
    known = toy_records()[2].label
    assert truncate_to_known(toy_taxonomy, known) == known
