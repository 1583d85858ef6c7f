"""Which check sees a wrong value in which route's table.

Each route's walk of every cell with 2j1, 2j2 <= 3 is changed one value
at a time by `oracles.perturbed_tables`, and the cell workers of the four
checks that read the walks (agreement, unitarity, collapse and the ladder
check) run on the changed table.  The matrix counts, for each route and
kind of change, the tables that each set of checks fails.  The 3j and
Condon-Shortley checks read `_wigner3j` and the public `cg_*` functions,
not the walks, so they have no column.

What the matrix shows:
- the collapse check catches nothing: every route's value is one radical
  by construction, and no change of one value makes it two;
- Racah's walk is read by agreement alone;
- a change that only agreement catches on the closed-form or the ladder
  walk sits at the one-value cell (0, 0), where the other checks have no
  relation to test, or is the swap in |0, 0> of (1/2, 1/2), which negates
  a chain of one state and keeps every relation.  Condon-Shortley checks
  that sign through the `cg_*` functions;
- every dropped closed-form value fails unitarity: the check takes its
  rows and columns from the cell, so one that loses its only value is
  empty and fails its norm.

An `extended` test runs the same matrix at 2j1, 2j2 <= 6.
"""

from collections import Counter

import pytest

import cgexact.verification as verification
from oracles import PERTURBATIONS, perturbed_tables

CHECK_CELLS = {
    "agreement": verification._agreement_cell,
    "unitarity": verification._unitarity_cell,
    "collapse": verification._collapse_cell,
    "ladder": verification._ladder_cell,
}

WALKS = {"closed form": "_closed_form_walk", "ladder": "_ladder_walk", "Racah": "_racah_walk"}

#: (route, kind of change) -> {the checks that fail, joined by " + ": tables}
EXPECTED = {
    ("closed form", "negate"): {
        "agreement + unitarity + ladder": 143,
        "agreement + ladder": 36,
        "agreement + unitarity": 9,
        "agreement": 1,
    },
    ("closed form", "drop"): {
        "agreement + unitarity + ladder": 179,
        "agreement + unitarity": 10,
    },
    ("closed form", "double radicand"): {
        "agreement + unitarity + ladder": 179,
        "agreement + unitarity": 10,
    },
    ("closed form", "double"): {
        "agreement + unitarity + ladder": 179,
        "agreement + unitarity": 10,
    },
    ("closed form", "swap"): {
        "agreement + unitarity + ladder": 63,
        "agreement + ladder": 9,
        "agreement + unitarity": 5,
        "agreement": 1,
    },
    ("ladder", "negate"): {"agreement + ladder": 188, "agreement": 1},
    ("ladder", "drop"): {"agreement + ladder": 189},
    ("ladder", "double radicand"): {"agreement + ladder": 189},
    ("ladder", "double"): {"agreement + ladder": 189},
    ("ladder", "swap"): {"agreement + ladder": 77, "agreement": 1},
    ("Racah", "negate"): {"agreement": 189},
    ("Racah", "drop"): {"agreement": 189},
    ("Racah", "double radicand"): {"agreement": 189},
    ("Racah", "double"): {"agreement": 189},
    ("Racah", "swap"): {"agreement": 78},
}


#: the same matrix over every cell with 2j1, 2j2 <= 6 (2 348 values and
#: 1 514 swaps per route), run by the `extended` test
EXPECTED_AT_6 = {
    ("closed form", "negate"): {
        "agreement + unitarity + ladder": 2194,
        "agreement + ladder": 126,
        "agreement + unitarity": 27,
        "agreement": 1,
    },
    ("closed form", "drop"): {
        "agreement + unitarity + ladder": 2320,
        "agreement + unitarity": 28,
    },
    ("closed form", "double radicand"): {
        "agreement + unitarity + ladder": 2320,
        "agreement + unitarity": 28,
    },
    ("closed form", "double"): {
        "agreement + unitarity + ladder": 2320,
        "agreement + unitarity": 28,
    },
    ("closed form", "swap"): {
        "agreement + unitarity + ladder": 1466,
        "agreement + ladder": 27,
        "agreement + unitarity": 20,
        "agreement": 1,
    },
    ("ladder", "negate"): {"agreement + ladder": 2347, "agreement": 1},
    ("ladder", "drop"): {"agreement + ladder": 2348},
    ("ladder", "double radicand"): {"agreement + ladder": 2348},
    ("ladder", "double"): {"agreement + ladder": 2348},
    ("ladder", "swap"): {"agreement + ladder": 1513, "agreement": 1},
    ("Racah", "negate"): {"agreement": 2348},
    ("Racah", "drop"): {"agreement": 2348},
    ("Racah", "double radicand"): {"agreement": 2348},
    ("Racah", "double"): {"agreement": 2348},
    ("Racah", "swap"): {"agreement": 1514},
}


def check_power(monkeypatch, max_twice_j: int) -> dict[tuple[str, str], Counter]:
    """The matrix over every cell with 2j1, 2j2 <= max_twice_j: each
    route's walk is patched to read the changed table while one is set,
    and each check's cell worker runs through `_guarded`, as in a sweep."""
    changed: dict[str, list] = {}
    originals = {name: getattr(verification, name) for name in WALKS.values()}
    for name, original in originals.items():

        def walk(tj1, tj2, name=name, original=original):
            return iter(changed[name]) if name in changed else original(tj1, tj2)

        monkeypatch.setattr(verification, name, walk)
    matrix: dict[tuple[str, str], Counter] = {}
    for route, name in WALKS.items():
        for cell in verification._cells(max_twice_j):
            for kind, _, table in perturbed_tables(list(originals[name](*cell))):
                changed[name] = table
                caught = [
                    check
                    for check, worker in CHECK_CELLS.items()
                    if verification._guarded(worker, cell)[1] is not None
                ]
                matrix.setdefault((route, kind), Counter())[" + ".join(caught) or "none"] += 1
            del changed[name]
    return matrix


def test_check_power_matrix_at_small_cells(monkeypatch):
    matrix = check_power(monkeypatch, 3)
    assert {kind for _, kind in matrix} == set(PERTURBATIONS)
    assert {key: dict(caught) for key, caught in matrix.items()} == EXPECTED


@pytest.mark.extended
def test_check_power_matrix_at_2j_6(monkeypatch):
    # 75-80 s on one CPU
    matrix = check_power(monkeypatch, 6)
    assert {key: dict(caught) for key, caught in matrix.items()} == EXPECTED_AT_6
