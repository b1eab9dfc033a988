"""Hand-made records shared by several test modules."""
from taxossm.records import BarcodeRecord, make_label


def toy_records():
    """Three species: A and B share genus g1, C sits under g2, one family above."""
    base = ("k", "p", "c", "o", "f")
    return [
        BarcodeRecord("t0", "ACGTACGT", make_label(*base, "g1", "A")),
        BarcodeRecord("t1", "ACGTACGA", make_label(*base, "g1", "B")),
        BarcodeRecord("t2", "ACGTACGC", make_label(*base, "g2", "C")),
    ]


def wide_records(n_species=10_000):
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
