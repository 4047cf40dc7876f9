"""Every CLI run of the golden table leaves the bytes it left when the table
was written (see ``golden.py``, which also rewrites the table)."""

from golden import RUNS, digest, read_table


def test_every_run_matches_the_golden_table():
    table = read_table()
    assert sorted(table) == sorted(run for run, _ in RUNS), "rewrite the table: runs changed"
    moved = [run for run, argv in RUNS if digest(argv) != table[run]]
    assert not moved, f"{len(moved)} of {len(RUNS)} runs moved: {moved}"
