"""Bit identity of every solve in the fixed corpus of ``tests/corpus_hash.py``.

The recorded lines are what ``python3 tests/corpus_hash.py`` prints for the
solver as it stands: per method, a hash of every solve's trajectory shape
(iterations, ledger, supports) and one of every bit (values, residuals,
snapshots). A change meant to keep the solver's results moves no bit and
leaves them alone. A change that alters bits on purpose updates the lines
here and says in CHANGES.md why its results differ.
"""

from corpus_hash import lines

RECORDED = [
    "ista solves 512"
    " shape 47d2587e63a84ceabed41e4273eacda903fb51af56b8ef5dd98603b07611dbf7"
    " bits d30247b6741ecc3dd7d4281aa6c40614f9199357f0bf44a4a1de467798783692",
    "fista solves 512"
    " shape 46a9250016c6cf7f48dd0c8edd57983addffd6d1c5dc738e5392d6d66e8b4efe"
    " bits cd88c3d69962bf30278399a5b28fe025b64af5718de38958aaead26140d2a024",
]


def test_corpus_hashes_are_the_recorded_ones():
    assert lines() == RECORDED
