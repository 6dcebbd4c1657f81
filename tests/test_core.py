from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import (
    InputError,
    PreferenceMatrices,
    build_matching_graph,
    delta_overload,
    read_instance,
    write_instance,
)
from matchlab.core import all_degrees
from matchlab.rng import philox

from oracles import and_matrix_edges, matching_edges


def random_prefs(n, seed, p=0.5):
    g = philox(seed, 99)
    return PreferenceMatrices.from_bool_arrays(g.random((n, n)) < p, g.random((n, n)) < p)


def test_demo_instance_matches(demo_prefs):
    mg = build_matching_graph(demo_prefs)
    assert mg.match_count == 4
    assert (mg.boy_rows[0] >> 2) & 1  # boy 0 with girl 2
    boy_deg, girl_deg = all_degrees(mg)
    assert girl_deg[0] == 3
    assert boy_deg[1] == 1


def test_all_false_gives_empty_graph():
    prefs = PreferenceMatrices(5, (0,) * 5, (0,) * 5)
    mg = build_matching_graph(prefs)
    assert mg.match_count == 0
    assert mg.boy_rows == (0,) * 5
    assert all_degrees(mg) == ([0] * 5, [0] * 5)


def test_graph_equals_entrywise_and_oracle():
    prefs = random_prefs(8, seed=42)
    mg = build_matching_graph(prefs)
    edges = {(b, g) for b in range(8) for g in range(8) if (mg.boy_rows[b] >> g) & 1}
    assert edges == and_matrix_edges(prefs)
    assert list(matching_edges(mg)) == sorted(edges)  # by boy, then by girl


def test_degree_equals_popcount_oracle():
    prefs = random_prefs(7, seed=3)
    mg = build_matching_graph(prefs)
    edges = and_matrix_edges(prefs)
    boy_deg, girl_deg = all_degrees(mg)
    for b in range(7):
        assert boy_deg[b] == sum(1 for e in edges if e[0] == b)
    for g in range(7):
        assert girl_deg[g] == sum(1 for e in edges if e[1] == g)


def test_delta_overload_demo(demo_prefs):
    mg = build_matching_graph(demo_prefs)
    # degrees: boys (2,1,0,1), girls (3,0,1,0); T/n = 1
    assert delta_overload(mg, 4) == Fraction(3)


def test_delta_overload_zero_cases(demo_prefs):
    mg = build_matching_graph(demo_prefs)
    assert delta_overload(mg, 4 * 3) == 0  # T/n = max degree
    empty = build_matching_graph(PreferenceMatrices(3, (0,) * 3, (0,) * 3))
    assert delta_overload(empty, 17) == 0


def test_delta_is_exact_rational():
    mg = build_matching_graph(random_prefs(6, seed=9))
    d = delta_overload(mg, 7)
    assert isinstance(d, Fraction)
    assert d.denominator in (1, 2, 3, 6)


bool_matrix = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
    )
)


@given(bool_matrix)
def test_matching_symmetry_and_count(data):
    n, boys, girls = data
    mg = build_matching_graph(PreferenceMatrices(n, tuple(boys), tuple(girls)))
    edges = list(matching_edges(mg))
    boy_deg, girl_deg = all_degrees(mg)
    assert boy_deg == [sum(1 for b, _ in edges if b == x) for x in range(n)]
    assert girl_deg == [sum(1 for _, g in edges if g == x) for x in range(n)]
    assert sum(boy_deg) == sum(girl_deg) == mg.match_count
    assert all(0 <= d <= n for d in boy_deg + girl_deg)


@given(bool_matrix, st.integers(0, 50))
def test_delta_monotone_in_T(data, T):
    n, boys, girls = data
    mg = build_matching_graph(PreferenceMatrices(n, tuple(boys), tuple(girls)))
    assert delta_overload(mg, T) >= delta_overload(mg, T + 1)
    boy_deg, girl_deg = all_degrees(mg)
    dmax = max(boy_deg + girl_deg)
    assert delta_overload(mg, n * dmax) == 0


@settings(max_examples=30)
@given(bool_matrix)
def test_instance_file_roundtrip(tmp_path_factory, data):
    n, boys, girls = data
    prefs = PreferenceMatrices(n, tuple(boys), tuple(girls))
    path = tmp_path_factory.mktemp("inst") / "i.txt"
    write_instance(prefs, path)
    assert read_instance(path) == prefs


def test_bool_array_roundtrip():
    prefs = random_prefs(9, seed=5)
    b, g = prefs.to_bool_arrays()
    assert PreferenceMatrices.from_bool_arrays(b, g) == prefs
    assert b.shape == (9, 9) and b.dtype == bool


@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
    st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
)))
def test_bitset_conversions_match_bit_loops(data):
    # widths up to 20 cross byte boundaries of the packed rows
    n, boys, girls = data
    prefs = PreferenceMatrices(n, tuple(boys), tuple(girls))
    b, g = prefs.to_bool_arrays()
    assert b.dtype == bool and b.shape == g.shape == (n, n)
    assert b.tolist() == [[bool((r >> j) & 1) for j in range(n)] for r in boys]
    assert g.tolist() == [[bool((r >> j) & 1) for j in range(n)] for r in girls]
    assert list(matching_edges(build_matching_graph(prefs))) == [
        (i, j) for i in range(n) for j in range(n) if (boys[i] >> j) & 1 and (girls[j] >> i) & 1
    ]


def test_rejects_malformed():
    with pytest.raises(InputError):
        PreferenceMatrices(2, (0, 4), (0, 0))  # bit outside n
    with pytest.raises(InputError):
        PreferenceMatrices(2, (0,), (0, 0))
    arr = np.zeros((2, 3), dtype=bool)
    with pytest.raises(InputError):
        PreferenceMatrices.from_bool_arrays(arr, arr)


# the parse errors of read_instance, pinned line by line
GOOD = "3\n010\n110\n001\n\n100\n011\n111\n"


@pytest.mark.parametrize("text, line, message", [
    ("", 1, "empty instance file"),
    ("x\n", 1, "expected population size, got 'x'"),
    ("0\n", 1, "population size must be >= 1, got 0"),
    ("3\n010\n110\n001\n\n100\n", 6, "expected 8 lines for n=3"),
    ("3\n010\n11\n001\n\n100\n011\n111\n", 3, "boys_like: need 3 chars of 0/1"),
    ("3\n010\n110\n0011\n\n100\n011\n111\n", 4, "boys_like: need 3 chars of 0/1"),
    ("3\n010\n110\n001\n\n100\n021\n111\n", 7, "girls_like: need 3 chars of 0/1"),
    ("3\n010\n110\n001\n\n100\n011\n1 1\n", 8, "girls_like: need 3 chars of 0/1"),
    ("3\n010\n110\n001\n000\n100\n011\n111\n", 5, "expected blank separator line"),
    ("3\n010\n110\n001\n100\n011\n111\n000\n000\n", 5, "expected blank separator line"),
])
def test_read_instance_errors(tmp_path, text, line, message):
    from matchlab.errors import ParseError

    path = tmp_path / "i.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as e:
        read_instance(path)
    assert (e.value.line_no, e.value.message) == (line, message)
    assert str(e.value) == f"{path}:{line}: {message}"


def test_read_instance_first_bad_row_wins(tmp_path):
    # a short row after a bad character: the error names the earlier line
    path = tmp_path / "i.txt"
    path.write_text("3\n010\n1a0\n00\n\n100\n011\n111\n")
    with pytest.raises(InputError, match=r":3: boys_like"):
        read_instance(path)


def test_read_instance_accepts_crlf_and_padding(tmp_path):
    want = PreferenceMatrices(3, (0b010, 0b011, 0b100), (0b001, 0b110, 0b111))
    for text in (GOOD, GOOD.replace("\n", "\r\n"), " 3 \n010 \n\t110\n001\n  \n100\n011\n111\nextra\n"):
        path = tmp_path / "i.txt"
        path.write_bytes(text.encode())
        assert read_instance(path) == want
