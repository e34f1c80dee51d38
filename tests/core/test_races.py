"""Unit tests for race records and the report container."""

import pickle

import pytest

from repro.core.races import AccessKind, Race, RaceReport


def make(loc="x", kind=AccessKind.WRITE_WRITE, prev=1, cur=2, **extra):
    return Race(loc=loc, kind=kind, prev_task=prev, current_task=cur,
                prev_name=f"t{prev}", current_name=f"t{cur}", **extra)


def test_report_collects_and_tracks_locations():
    report = RaceReport()
    assert not report.has_races
    report.add(make(loc="a"))
    report.add(make(loc="b"))
    assert len(report) == 2
    assert report.racy_locations == {"a", "b"}


def test_dedupe_ignores_task_order():
    report = RaceReport()
    assert report.add(make(prev=1, cur=2))
    assert not report.add(make(prev=2, cur=1))  # same unordered pair
    assert len(report) == 1


def test_dedupe_distinguishes_kind_and_loc():
    report = RaceReport()
    assert report.add(make(kind=AccessKind.WRITE_WRITE))
    assert report.add(make(kind=AccessKind.WRITE_READ))
    assert report.add(make(loc="other"))
    assert len(report) == 3


def test_no_dedupe_mode_keeps_everything():
    report = RaceReport(dedupe=False)
    report.add(make())
    report.add(make())
    assert len(report) == 2


def test_duplicate_still_marks_location():
    report = RaceReport()
    report.add(make(loc="a"))
    report.add(make(loc="a"))
    assert report.racy_locations == {"a"}
    assert len(report) == 1


def test_summary_formats():
    report = RaceReport()
    assert "no determinacy races" in report.summary()
    report.add(make())
    text = report.summary()
    assert "1 determinacy race" in text
    assert "write-write" in text
    assert "t1" in text and "t2" in text


def test_kind_str():
    assert str(AccessKind.READ_WRITE) == "read-write"
    assert str(AccessKind.WRITE_READ) == "write-read"


def test_iteration_order_is_insertion_order():
    report = RaceReport()
    first, second = make(loc="a"), make(loc="b")
    report.add(first)
    report.add(second)
    assert list(report) == [first, second]


def test_provenance_fields_default_inert():
    """The optional site/witness fields change neither equality nor dedup."""
    race = make()
    assert race.prev_site is None
    assert race.current_site is None
    assert race.witness_id is None
    report = RaceReport()
    assert report.add(make())
    with_sites = make(prev_site="prog.py:3 (worker)", witness_id="w0")
    assert not report.add(with_sites)  # same pair → still deduplicated
    assert with_sites == make()        # compare=False on the new fields


def test_summary_is_stable_sorted_and_shows_sites():
    """summary() renders races sorted by (loc, pair, kind) regardless of
    detection order, and appends the site line only when sites exist."""
    report = RaceReport()
    report.add(make(loc="b", prev_site="prog.py:9 (main)"))
    report.add(make(loc="a"))
    text = report.summary()
    assert text.index("'a'") < text.index("'b'")
    assert "prev access at prog.py:9 (main)" in text
    assert "current access at <unknown>" in text
    # insertion order untouched — only the rendering sorts
    assert [r.loc for r in report] == ["b", "a"]


# ---------------------------------------------------------------------- #
# The Race record                                                        #
# ---------------------------------------------------------------------- #
def test_race_is_immutable():
    race = make()
    with pytest.raises(AttributeError):
        race.loc = "y"
    with pytest.raises(AttributeError):
        race.prev_site = "prog.py:1"


def test_equality_and_hash_ignore_sites_and_witness():
    plain = make()
    sited = make(prev_site="a.py:1", current_site="a.py:2", witness_id="w0")
    assert sited == plain and not sited != plain
    assert hash(sited) == hash(plain)
    assert len({plain, sited}) == 1
    assert make(prev=3) != plain
    assert make(kind=AccessKind.WRITE_READ) != plain


def test_pickle_round_trip_gives_an_equal_race():
    sited = make(loc=("x", 3), prev_site="a.py:1", witness_id="w0")
    back = pickle.loads(pickle.dumps(sited))
    assert back == sited and type(back) is Race
    assert back.prev_site == "a.py:1" and back.witness_id == "w0"
    assert str(back) == str(sited)


def test_race_never_equals_a_plain_tuple():
    race = make()
    assert race != tuple(race)
    assert race != tuple(race)[:6]
    assert tuple(race) != race


def test_copy_with_sites_keeps_equality_and_dedupe_key():
    race = make(prev=5, cur=2)
    sited = race._replace(prev_site="a.py:1", current_site="a.py:2",
                          witness_id="w3")
    assert type(sited) is Race
    assert sited == race and sited.pair_key == race.pair_key
    assert (sited.prev_site, sited.current_site, sited.witness_id) == (
        "a.py:1", "a.py:2", "w3")
    assert race.prev_site is None  # the original is untouched


def test_str_text_is_unchanged():
    assert str(make(loc=("x", 1), prev=1, cur=2)) == (
        "determinacy race (write-write) on ('x', 1): task t1 vs task t2")
    unnamed = Race(loc="a", kind=AccessKind.READ_WRITE, prev_task=4,
                   current_task=7)
    assert str(unnamed) == "determinacy race (read-write) on 'a': task 4 vs task 7"
    assert make().pair_key == ("x", 1, 2, AccessKind.WRITE_WRITE)
    assert make(prev=2, cur=1).pair_key == ("x", 1, 2, AccessKind.WRITE_WRITE)


def test_record_and_add_agree():
    """record() (what checkers call) and add() (a built Race) share one
    dedupe key and build the same race."""
    built, recorded = RaceReport(), RaceReport()
    for kind in AccessKind:
        for prev, cur in ((1, 2), (2, 1), (3, 3)):
            race = make(loc=("x", 0), kind=kind, prev=prev, cur=cur)
            got = recorded.record(("x", 0), kind.value, prev, cur,
                                  f"t{prev}", f"t{cur}")
            assert built.add(race) is (got is not None)
            if got is not None:
                assert got == race and got.prev_site is None
    assert built.races == recorded.races and len(recorded) == 6
    assert built.racy_locations == recorded.racy_locations == {("x", 0)}
    # a duplicate through one entry point is a duplicate through the other
    assert not recorded.add(make(loc=("x", 0), prev=2, cur=1))
    assert built.record(("x", 0), "write-write", 2, 1) is None
    assert recorded.summary() == built.summary()


def test_record_without_dedupe_keeps_every_race():
    report = RaceReport(dedupe=False)
    first = report.record("a", "write-read", 1, 2)
    second = report.record("a", "write-read", 2, 1)
    assert first is not None and second is not None
    assert len(report) == 2 and report.racy_locations == {"a"}


def test_concat_keeps_races_and_locations_without_retesting():
    left, right = RaceReport(), RaceReport()
    a = left.record("a", "write-write", 1, 2)
    b = right.record("b", "write-read", 2, 1)
    merged = RaceReport.concat([left, right], [b, a])
    assert merged.races == [b, a]
    assert merged.racy_locations == {"a", "b"}
    assert merged.record("a", "write-write", 2, 1) is None  # keys carried


def test_summary_text_is_byte_exact():
    report = RaceReport()
    report.record(("x", 2), "write-read", 4, 1, "future#4", "main#0")
    report.record(("x", 10), "read-write", 2, 3, "", "task#3")
    report.add(make(loc=("x", 2), kind=AccessKind.WRITE_WRITE, prev=1,
                    cur=4)._replace(current_site="p.py:7 (f)"))
    assert report.summary() == (
        "3 determinacy race(s) detected:\n"
        "  - determinacy race (read-write) on ('x', 10): "
        "task 2 vs task task#3\n"
        "  - determinacy race (write-read) on ('x', 2): "
        "task future#4 vs task main#0\n"
        "  - determinacy race (write-write) on ('x', 2): task t1 vs task t4\n"
        "      prev access at <unknown>; current access at p.py:7 (f)"
    )
