import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import InputError, build_matching_graph
from matchlab.errors import ParseError
from matchlab.ingest import RawRatings, binarize, densify, parse_ratings

from oracles import densify_loop, matching_edges


def write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


def test_empty_files(tmp_path):
    ratings = write(tmp_path, "r.csv", [])
    genders = write(tmp_path, "g.csv", [])
    raw = parse_ratings(ratings, genders)
    assert raw.triples == []


def test_single_cross_gender_rating(tmp_path):
    ratings = write(tmp_path, "r.csv", ["1,2,7"])
    genders = write(tmp_path, "g.csv", ["1,M", "2,F"])
    raw = parse_ratings(ratings, genders)
    assert raw.triples == [(1, 2, 7)]
    assert raw.males() == [1] and raw.females() == [2]


def test_unknown_gender_and_same_gender_dropped(tmp_path):
    # 10 users, 3 with unknown gender; only known cross-gender triples survive
    genders = write(
        tmp_path,
        "g.csv",
        ["1,M", "2,M", "3,M", "4,F", "5,F", "6,F", "7,F", "8,U", "9,?", "10,unknown"],
    )
    ratings = write(
        tmp_path,
        "r.csv",
        [
            "1,4,5",   # keep
            "1,2,9",   # same gender
            "8,4,9",   # unknown rater
            "4,9,9",   # unknown rated
            "5,3,2",   # keep
            "10,1,5",  # unknown rater
            "6,6,4",   # same gender (self)
            "2,7,3",   # keep
        ],
    )
    raw = parse_ratings(ratings, genders)
    assert raw.triples == [(1, 4, 5), (5, 3, 2), (2, 7, 3)]


def test_crlf_tolerated(tmp_path):
    (tmp_path / "r.csv").write_text("1,2,7\r\n")
    (tmp_path / "g.csv").write_text("1,M\r\n2,F\r\n")
    raw = parse_ratings(tmp_path / "r.csv", tmp_path / "g.csv")
    assert raw.triples == [(1, 2, 7)]


def test_parse_errors_carry_line_numbers(tmp_path):
    genders = write(tmp_path, "g.csv", ["1,M", "2,F"])
    ratings = write(tmp_path, "r.csv", ["1,2,7", "1,2"])
    with pytest.raises(ParseError) as e:
        parse_ratings(ratings, genders)
    assert e.value.line_no == 2
    bad_rating = write(tmp_path, "r2.csv", ["1,2,11"])
    with pytest.raises(ParseError):
        parse_ratings(bad_rating, genders)


def test_binarize_threshold(tmp_path):
    genders = write(tmp_path, "g.csv", ["1,M", "2,F", "3,F", "4,F", "5,F"])
    ratings = write(tmp_path, "r.csv", ["1,2,1", "1,3,2", "1,4,3", "1,5,10"])
    b = binarize(parse_ratings(ratings, genders))
    assert b.likes_bg[1] == {4, 5}  # ratings {1,2,3,10} -> likes {3,10}
    assert b.like_count == 2
    assert len(b.rated_of[1]) == 4  # all four count as ratings


def dense_core_fixture(tmp_path):
    """10 boys (1..10) x 5 core girls (101..105) fully mutual at rating 10,
    plus fringe girls 106..109 who each rate boy 1 once.

    Hand trace with c=7, counts = given+received:
      state (10,9)  L=104: 104 < 7*27      -> remove girl 106 (count 1)
      state (10,8)  L=103: 103 < 7*22.63   -> remove girl 107 (count 1)
      state (10,7)  L=102: 102 < 7*18.52   -> remove girl 108 (count 1)
      state (10,6)  L=101: 101 < 7*14.70   -> remove girl 109 (count 1)
      state (10,5)  L=100: 100 >= 7*11.18  -> stop
    """
    boys = [f"{i},M" for i in range(1, 11)]
    girls = [f"{i},F" for i in range(101, 110)]
    genders = write(tmp_path, "g.csv", boys + girls)
    lines = []
    for b in range(1, 11):
        for g in range(101, 106):
            lines.append(f"{b},{g},10")
            lines.append(f"{g},{b},10")
    for g in range(106, 110):
        lines.append(f"{g},1,3")
    ratings = write(tmp_path, "r.csv", lines)
    return parse_ratings(ratings, genders)


def test_densify_hand_traced_removals(tmp_path):
    raw = dense_core_fixture(tmp_path)
    prefs, report = densify(binarize(raw), c=7.0)
    assert report.removals == [(106, "F", 1), (107, "F", 1), (108, "F", 1), (109, "F", 1)]
    assert (report.final_boys, report.final_girls) == (10, 5)
    assert report.like_count == 100
    assert report.match_count == 50
    assert report.n == 10 and report.phantoms == 5
    # threshold satisfied and re-verified from the output matrices
    assert report.like_count >= report.coefficient * min(report.final_boys, report.final_girls) ** 1.5
    likes_in_matrices = sum(r.bit_count() for r in prefs.boys_like) + sum(
        r.bit_count() for r in prefs.girls_like
    )
    assert likes_in_matrices == report.like_count
    assert build_matching_graph(prefs).match_count == report.match_count


def test_densify_already_dense_zero_removals(tmp_path):
    raw = dense_core_fixture(tmp_path)
    _, report = densify(binarize(raw), c=3.0)
    assert report.removals == []
    assert (report.final_boys, report.final_girls) == (10, 9)


def test_densify_unreachable_target_errors(tmp_path):
    raw = dense_core_fixture(tmp_path)
    with pytest.raises(InputError):
        densify(binarize(raw), c=1000.0)


def test_densify_deterministic(tmp_path):
    raw = dense_core_fixture(tmp_path)
    a = densify(binarize(raw), c=7.0)
    b = densify(binarize(raw), c=7.0)
    assert a[0] == b[0]
    assert a[1].removals == b[1].removals


def test_densify_count_modes(tmp_path):
    raw = dense_core_fixture(tmp_path)
    for mode in ("both", "given", "received"):
        prefs, report = densify(binarize(raw), c=3.0, count_mode=mode)
        assert report.count_mode == mode
    with pytest.raises(InputError):
        densify(binarize(raw), c=3.0, count_mode="sideways")


def test_phantoms_never_match(tmp_path):
    raw = dense_core_fixture(tmp_path)
    prefs, report = densify(binarize(raw), c=7.0)
    mg = build_matching_graph(prefs)
    assert report.final_girls < report.n  # the case is exercised
    assert all(g < report.final_girls for _, g in matching_edges(mg))  # phantom girls have no matches


@st.composite
def rating_sets(draw):
    """A core of men (ids 0..) and women (ids 100..) who rate each other
    mostly as likes, plus fringe users of both genders with a few ratings
    to and from anyone.  A pair may be rated more than once, so the rating
    lists repeat ids."""
    core_m = list(range(draw(st.integers(1, 5))))
    core_w = list(range(100, 100 + draw(st.integers(1, 5))))
    men = core_m + list(range(50, 50 + draw(st.integers(0, 5))))
    women = core_w + list(range(150, 150 + draw(st.integers(0, 5))))
    like = st.integers(3, 10)
    triples = [(m, w, draw(like)) for m in core_m for w in core_w]
    triples += [(w, m, draw(like)) for m in core_m for w in core_w]
    pair = st.one_of(
        st.tuples(st.sampled_from(men), st.sampled_from(women)),
        st.tuples(st.sampled_from(women), st.sampled_from(men)),
    )
    fringe = draw(st.lists(st.tuples(pair, st.integers(1, 10)), max_size=30))
    triples += [(a, b, r) for (a, b), r in fringe]
    genders = {u: "M" for u in men} | {u: "F" for u in women}
    return RawRatings(draw(st.permutations(triples)), genders)


@settings(max_examples=200, deadline=None)
@given(raw=rating_sets(), ratio=st.floats(1.0, 1.6), mode=st.sampled_from(["both", "given", "received"]))
def test_densify_matches_full_recount(raw, ratio, mode):
    # aim at ratio times the starting density, so most cases remove users
    b = binarize(raw)
    c = max(0.01, ratio * b.like_count / max(1, min(len(b.boys), len(b.girls))) ** 1.5)
    try:
        want = densify_loop(binarize(raw), c, mode)
    except InputError as e:
        with pytest.raises(InputError, match=f"^{e}$"):
            densify(binarize(raw), c, mode)
        return
    assert densify(binarize(raw), c, mode) == want
