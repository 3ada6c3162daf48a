import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from swingwords.linalg import RowSpace, independent, rank, row_space


def test_rank_and_reduce():
    space = RowSpace()
    assert space.insert({0: 1, 1: 2})
    assert space.insert({1: 1})
    assert not space.insert({0: 2, 1: 5})
    assert space.rank == 2
    assert space.reduce({0: 7, 1: -3}) == {}


def test_rref_is_canonical():
    a = row_space([{0: 2, 1: 4}, {1: 3, 2: 6}])
    b = row_space([{1: 1, 2: 2}, {0: 1, 1: 2}])
    assert a == b
    assert a.rows() == [{0: 1, 2: -4}, {1: 1, 2: 2}]


def test_insertion_order_does_not_change_basis():
    rows = [{0: 1, 1: 1}, {1: 2, 2: 1}, {0: 3, 2: -1}]
    assert row_space(rows) == row_space(rows[::-1])


def test_fraction_normalization():
    space = row_space([{0: 2, 1: 3}])
    assert space.rows() == [{0: 1, 1: Fraction(3, 2)}]


def test_modular_rank_drop():
    rows = [{0: 3, 1: 6}]
    assert rank(rows) == 1
    assert rank(rows, char=3) == 0


def test_modular_arithmetic():
    space = RowSpace(char=5)
    space.insert({0: 2, 1: 1})
    assert space.reduce({0: 4, 1: 2}) == {}
    assert space.reduce({0: 1}) != {}


# Differential check of the fraction-free elimination against a plain
# Fraction Gauss-Jordan reference, on sparse rows with small and huge entries.

COLUMNS = list(range(6))
coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-10**40, 10**40),
    st.fractions(max_denominator=10**12),
)
sparse_rows = st.dictionaries(st.sampled_from(COLUMNS), coefficients, max_size=4)
row_lists = st.lists(sparse_rows, max_size=7)


def _ref_axpy(row, factor, pivot):
    for c, v in pivot.items():
        acc = row.get(c, 0) - factor * v
        if acc:
            row[c] = acc
        else:
            row.pop(c, None)


def _ref_reduce(pivots, row):
    row = {c: Fraction(v) for c, v in row.items() if v}
    for col, pivot in pivots.items():
        if col in row:
            _ref_axpy(row, row[col], pivot)
    return row


def _ref_rref(rows):
    """Reduced echelon rows keyed by pivot column, and the insert flags."""
    pivots, flags = {}, []
    for row in rows:
        row = _ref_reduce(pivots, row)
        flags.append(bool(row))
        if row:
            col = min(row)
            row = {c: v / row[col] for c, v in row.items()}
            for other in pivots.values():
                if col in other:
                    _ref_axpy(other, other[col], row)
            pivots[col] = row
    return pivots, flags


def _integral_values_are_ints(row):
    return all(isinstance(v, int) or v.denominator != 1 for v in row.values())


@settings(max_examples=150, deadline=None)
@given(row_lists, sparse_rows)
def test_insert_rank_rows_and_reduce_match_reference(rows, probe):
    pivots, flags = _ref_rref(rows)
    space = RowSpace()
    assert [space.insert(row) for row in rows] == flags
    assert space.rank == len(pivots)
    assert space.rows() == [pivots[c] for c in sorted(pivots)]
    expected = _ref_reduce(pivots, probe)
    normal = space.reduce(probe)
    assert normal == expected
    assert _integral_values_are_ints(normal)
    assert space.contains(probe) == (not expected)
    for row in rows:
        assert space.contains(row)
    # stored rows: primitive integer vectors, positive leading entry, zero at
    # every other pivot column
    for col, row in space.pivots.items():
        assert all(isinstance(v, int) for v in row.values())
        assert min(row) == col and row[col] > 0
        assert math.gcd(*row.values()) == 1
        assert not any(c in space.pivots for c in row if c != col)


@settings(max_examples=150, deadline=None)
@given(row_lists, st.randoms(use_true_random=False), row_lists)
def test_equality_matches_reference_across_orders(rows, rng, others):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert row_space(rows) == row_space(shuffled)
    same = _ref_rref(rows)[0] == _ref_rref(others)[0]
    assert (row_space(rows) == row_space(others)) == same



# `rank(rows, columns=c)` inserts sparsest first and stops at rank c; neither
# may change the rank of rows whose columns are among c.

@st.composite
def rows_in_columns(draw):
    c = draw(st.integers(1, 4))
    entries = st.dictionaries(st.integers(0, c - 1), st.integers(-6, 6), max_size=c)
    return c, draw(st.lists(entries, max_size=7))


@settings(max_examples=200, deadline=None)
@given(rows_in_columns(), st.sampled_from([None, 5]))
@example((3, []), None)  # zero rows
@example((2, [{0: 1, 1: 2}, {0: 1, 1: 2}, {0: 1, 1: 2}]), None)  # duplicate rows
@example((4, [{0: 1}, {2: 3, 3: 1}]), 5)  # fewer rows than columns
@example((2, [{0: 1, 1: 1}, {0: 1, 1: -1}]), None)  # rank exactly c over Q...
@example((2, [{0: 1, 1: 1}, {0: 1, 1: -1}, {1: 5}]), 5)  # ... and over F_5
@example((3, [{0: 2, 1: 5}, {1: 1}, {0: 1, 1: 1, 2: 1}, {2: 5}, {0: 1}]), 5)
def test_rank_capped_at_the_column_count_is_the_rank(case, char):
    c, rows = case
    assert rank(rows, char, columns=c) == rank(rows, char)


def test_rank_inserts_sparsest_first_and_stops_at_full_column_rank(monkeypatch):
    inserted = []
    insert = RowSpace.insert

    def recorded(space, row):
        inserted.append(dict(row))
        return insert(space, row)

    monkeypatch.setattr(RowSpace, "insert", recorded)
    rows = [{0: 1, 1: 1}, {0: 2}, {0: 1, 1: 5}, {1: 3}, {1: 1}]
    assert rank(rows, columns=2) == 2
    # the one-entry rows come first, in their order, and once {0: 2} and
    # {1: 3} fill both columns no row is inserted
    assert inserted == [{0: 2}, {1: 3}]
    inserted.clear()
    assert rank(rows) == 2 and len(inserted) == len(rows)


# `independent(rows, limit)` is the plain insert loop's raising indices, cut
# where the rank first reaches `limit`, and draws no row past that point.

small_rows = st.lists(st.dictionaries(st.integers(0, 3), st.integers(-6, 6), max_size=4),
                      max_size=7)


@settings(max_examples=200, deadline=None)
@given(small_rows, st.one_of(st.none(), st.integers(0, 5)), st.sampled_from([None, 5]))
@example([{0: 1}, {1: 2}], 0, None)  # a limit of 0 draws no row
@example([{}, {0: 1}], 0, 5)
@example([{0: 1}, {0: 2}, {1: 1}, {0: 1}], None, None)  # dependent rows are skipped
@example([{0: 1}, {0: 6}, {1: 5}, {1: 1}, {2: 1}], 2, 5)  # 6 = 1 and 5 = 0 mod 5
def test_independent_is_the_insert_loop_cut_at_the_limit(rows, limit, char):
    space = RowSpace(char)
    raising = [i for i, row in enumerate(rows) if space.insert(row)]
    expected = raising if limit is None else raising[:limit]
    drawn = []

    def generated():
        for i, row in enumerate(rows):
            drawn.append(i)
            yield row

    assert independent(generated(), limit, char) == expected
    if limit is not None and len(expected) == limit:
        # the stop: the last row drawn is the one that reached the limit
        assert len(drawn) == (expected[-1] + 1 if expected else 0)
    else:
        assert len(drawn) == len(rows)
