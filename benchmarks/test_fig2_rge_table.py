"""E2 — Figure 2: the RGE transition table worked example.

Reproduces the paper's exact numbers: CloakA = {s8, s9, s11} (rows, sorted
by length), CanA = {s6, s10, s14} (columns), transition values
((i-1)+(j-1)) mod 3, and for R_i = 5 the pick value 2 selecting cell (2,2):
forward s8 -> s14, backward s14 -> s8.
"""

import pytest

from repro import TransitionTable, fig2_network
from repro.bench import ResultTable


@pytest.fixture(scope="module")
def fig2():
    return fig2_network()


def test_fig2_worked_example(fig2, benchmark, results_path):
    cloak = {8, 9, 11}
    candidates = set(fig2.frontier(cloak))
    assert candidates == {6, 10, 14}

    def build_and_lookup():
        table = TransitionTable(fig2, cloak, candidates)
        return table, table.forward(8, 5), table.backward(14, 5)

    table, forward, backward = benchmark(build_and_lookup)

    result = ResultTable(
        "E2",
        "Figure 2 RGE transition table (rows/cols sorted by segment "
        "length; value = ((i-1)+(j-1)) mod |CanA|)",
        ["row_segment", "s6", "s14", "s10"],
    )
    for row_index, row_segment in enumerate(table.rows):
        values = [table.value(row_index, col) for col in range(3)]
        result.add_row(
            row_segment=f"s{row_segment}",
            s6=values[0],
            s14=values[1],
            s10=values[2],
        )
    result.print_and_save(results_path)

    # The paper's exact claims:
    assert table.rows == (9, 8, 11)  # s8 in row 2
    assert table.columns == (6, 14, 10)  # s14 in column 2
    assert table.pick_value(5) == 2  # "if Ri is 5, pi will be 2"
    assert table.value(1, 1) == 2  # cell (2,2) holds value 2
    assert forward == 14  # forward transition s8 -> s14
    assert backward == (8,)  # backward transition s14 -> s8
    # no repeated value in any row or column (collision-freedom)
    grid = table.grid()
    assert all(len(set(row)) == 3 for row in grid)
    assert all(len({row[c] for row in grid}) == 3 for c in range(3))
