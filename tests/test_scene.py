"""The scene contract: frozen, picklable data, played in the order it is
written (flows in ``flows`` order, script rows in row order)."""

import dataclasses
import pickle

import pytest

from repro.experiments import (
    fig1_convergence,
    fig4_traffic_shifting,
    fig6_fairness,
    fig7_rate_compensation,
)
from repro.experiments.scene import play
from repro.mptcp.connection import MptcpConnection
from repro.sim.probe import Probe, probing
from repro.validate.scenarios import SCENES

FIG4 = fig4_traffic_shifting.build_scene(fig4_traffic_shifting.Fig4Config(time_scale=0.005))
FIG6 = fig6_fairness.build_scene(fig6_fairness.Fig6Config(time_scale=0.005))

EVERY_SCENE = {
    "fig1": fig1_convergence.build_scene(fig1_convergence.Fig1Config()),
    "fig4": FIG4,
    "fig6": FIG6,
    "fig7": fig7_rate_compensation.build_scene(fig7_rate_compensation.Fig7Config()),
    **SCENES,
}


@pytest.mark.parametrize("name", list(EVERY_SCENE))
def test_a_scene_survives_a_pickle_round_trip(name):
    scene = EVERY_SCENE[name]
    copy = pickle.loads(pickle.dumps(scene))
    assert copy == scene and copy is not scene
    assert hash(copy) == hash(scene)


class ScriptRecorder(Probe):
    """Records every fired ``MptcpConnection`` method: (time, name, flow id)."""

    kind = "profile"

    def __init__(self):
        self.fired = []

    def on_event_fired(self, time, priority, callback, args):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, MptcpConnection):
            self.fired.append((time, callback.__name__, owner.flow_id))


def fired_at(scene, time):
    with probing(ScriptRecorder()) as recorder:
        play(scene)
    return [(name, flow) for at, name, flow in recorder.fired if at == time]


def swapped(scene, first):
    """``scene`` with script rows ``first`` and ``first + 1`` exchanged."""
    script = list(scene.script)
    script[first], script[first + 1] = script[first + 1], script[first]
    return dataclasses.replace(scene, script=tuple(script))


def test_fig4_same_instant_rows_fire_in_row_order():
    s = 0.005
    # Constructed flow1, flow3, flow2, BG1, BG2 (ids 0-4), started 1, 2, 3.
    assert fired_at(FIG4, 0.0) == [("start", 0), ("start", 2), ("start", 1)]
    # BG1 leaves DN1 before BG2 joins DN2.
    assert fired_at(FIG4, 20.0 * s) == [("stop", 3), ("start", 4)]
    assert FIG4.script[4:6] == ((20.0 * s, "stop", 3), (20.0 * s, "start", 4))
    assert fired_at(swapped(FIG4, 4), 20.0 * s) == [("start", 4), ("stop", 3)]


def test_fig6_same_instant_rows_fire_in_row_order():
    s = 0.005
    assert fired_at(FIG6, 25.0 * s) == [("stop", 2), ("stop", 3)]
    assert FIG6.script[6:8] == ((25.0 * s, "stop", 2), (25.0 * s, "stop", 3))
    assert fired_at(swapped(FIG6, 6), 25.0 * s) == [("stop", 3), ("stop", 2)]


def test_fig6_columns_keep_registration_order():
    _net, connections, series, _events = play(FIG6)
    assert list(series.columns) == [
        "flow1-1", "flow2-1", "flow2-2", "flow3-1", "flow4-1", "flow1-2", "flow1-3",
    ]
    assert [len(c.subflows) for c in connections] == [3, 2, 1, 1]


@pytest.mark.parametrize("row, complaint", [
    ((None, "link_up", 0), "unknown scene action 'link_up'"),
    ((0.1, "link_down", "A9->B9"), "no link named 'A9->B9'"),
])
def test_a_malformed_row_is_an_error(row, complaint):
    scene = dataclasses.replace(SCENES["bottleneck-xmp"], script=(row,))
    with pytest.raises(ValueError, match=complaint):
        play(scene)
