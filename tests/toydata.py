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
