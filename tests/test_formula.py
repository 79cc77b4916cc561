import pytest

from gridlc import GridCase, lc_grid_formula


GOLDEN = [
    (6, 4, 18, GridCase.BOTH_EVEN),
    (5, 4, 14, GridCase.OPPOSITE_PARITY),
    (7, 5, 26, GridCase.BOTH_ODD),
    (1, 1, 0, GridCase.TRIVIAL_1X1),
    (9, 1, 4, GridCase.PATH),
    (2, 2, 2, GridCase.BOTH_EVEN),
    (3, 3, 4, GridCase.BOTH_ODD),
    (2, 3, 3, GridCase.OPPOSITE_PARITY),
]


@pytest.mark.parametrize("n,m,expected,case", GOLDEN)
def test_golden_values(n, m, expected, case):
    value, matched = lc_grid_formula(n, m)
    assert value == expected
    assert matched is case


def test_symmetric_in_dimensions():
    for n in range(1, 21):
        for m in range(1, 21):
            assert lc_grid_formula(n, m)[0] == lc_grid_formula(m, n)[0]


def test_case_selection_is_exhaustive():
    for n in range(1, 13):
        for m in range(1, 13):
            case = lc_grid_formula(n, m)[1]
            if n == m == 1:
                assert case == GridCase.TRIVIAL_1X1
            elif n == 1 or m == 1:
                assert case == GridCase.PATH
            elif n % 2 == 0 and m % 2 == 0:
                assert case == GridCase.BOTH_EVEN
            elif n % 2 == 1 and m % 2 == 1:
                assert case == GridCase.BOTH_ODD
            else:
                assert case == GridCase.OPPOSITE_PARITY


def test_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        lc_grid_formula(0, 3)
    with pytest.raises(ValueError):
        lc_grid_formula(3, 0)


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
