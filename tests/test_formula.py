import pytest

from gridlc import lc_grid_formula


GOLDEN = [
    (6, 4, 18, "both_even"),
    (5, 4, 14, "opposite_parity"),
    (7, 5, 26, "both_odd"),
    (1, 1, 0, "trivial_1x1"),
    (9, 1, 4, "path_case"),
    (2, 2, 2, "both_even"),
    (3, 3, 4, "both_odd"),
    (2, 3, 3, "opposite_parity"),
]


@pytest.mark.parametrize("n,m,expected,case", GOLDEN)
def test_golden_values(n, m, expected, case):
    value, matched = lc_grid_formula(n, m)
    assert value == expected
    assert matched == case


def test_symmetric_in_dimensions():
    for n in range(1, 21):
        for m in range(1, 21):
            assert lc_grid_formula(n, m)[0] == lc_grid_formula(m, n)[0]


def test_case_selection_is_exhaustive():
    for n in range(1, 13):
        for m in range(1, 13):
            case = lc_grid_formula(n, m)[1]
            if n == m == 1:
                assert case == "trivial_1x1"
            elif n == 1 or m == 1:
                assert case == "path_case"
            elif n % 2 == 0 and m % 2 == 0:
                assert case == "both_even"
            elif n % 2 == 1 and m % 2 == 1:
                assert case == "both_odd"
            else:
                assert case == "opposite_parity"


def test_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        lc_grid_formula(0, 3)
    with pytest.raises(ValueError):
        lc_grid_formula(3, 0)


@pytest.mark.parametrize("n,m", [(2.5, 3), (3, 2.5), (4.0, 4), (True, 3), (3, True), (False, 2)])
def test_rejects_non_integer_dimensions(n, m):
    # 2.5 x 3 used to read as opposite parity and return 4.0.
    with pytest.raises(ValueError, match="must be integers"):
        lc_grid_formula(n, m)


@pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (5, 2), (9, 4), (10, 5), (25, 12)])
def test_path_formula(k, expected):
    assert lc_grid_formula(k, 1)[0] == expected == k // 2


def test_path_formula_agrees_with_grid_path_case():
    for k in range(1, 26):
        assert lc_grid_formula(k, 1)[0] == k // 2
        assert lc_grid_formula(1, k)[0] == k // 2


def test_path_formula_rejects_zero():
    with pytest.raises(ValueError):
        lc_grid_formula(0, 1)
