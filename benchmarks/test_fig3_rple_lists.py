"""E3 — Figure 3: RPLE pre-assigned transition lists.

Reproduces the Figure 3 semantics: segment s8 carries a forward transition
list of length T = 6; the keyed draw R_i selects slot ``R_i mod 6``; the
selected segment's backward list returns s8 at the same slot ("once the
backward transition sequence moves back to s14, with the same key, it can
select s8 from the backward transition list of s14").
"""

import pytest

from repro import Preassignment, fig3_network
from repro.bench import ResultTable
from repro.core import ReversiblePreassignmentExpansion, ToleranceSpec
from repro.core.algorithm import keyed_draw
from repro.keys import AccessKey


@pytest.fixture(scope="module")
def fig3():
    return fig3_network()


def test_fig3_preassigned_lists(fig3, benchmark, results_path):
    pre = benchmark(lambda: Preassignment(fig3, list_length=6))

    table = ResultTable(
        "E3",
        "Figure 3 RPLE transition lists (T=6) around segment s8",
        ["segment", "forward_list", "backward_list"],
    )
    for segment_id in sorted(fig3.segment_ids()):
        table.add_row(
            segment=f"s{segment_id}",
            forward_list=str(
                ["-" if t is None else f"s{t}" for t in pre.forward_list(segment_id)]
            ),
            backward_list=str(
                ["-" if t is None else f"s{t}" for t in pre.backward_list(segment_id)]
            ),
        )
    table.print_and_save(results_path)

    # Figure 3 claims:
    forward = pre.forward_list(8)
    assert sorted(t for t in forward if t is not None) == [10, 11, 12, 13, 14, 15]
    assert pre.verify_symmetry()  # FT[s][q] = sp <=> BT[sp][q] = s

    # "The index of s14 is calculated by Ri mod 6": the keyed step selects
    # exactly slot (R mod 6), and the backward list at that slot returns s8.
    key = AccessKey.from_passphrase(1, "fig3")
    rple = ReversiblePreassignmentExpansion(pre)
    wide = ToleranceSpec(max_segments=10)
    slot = keyed_draw(key, 1, 0) % 6
    selected = rple.forward_step(fig3, {8}, 8, key, 1, wide)
    assert selected == forward[slot]
    assert pre.backward_list(selected)[slot] == 8
    assert rple.backward_anchors(fig3, {8}, selected, key, 1, wide) == (8,)
