"""tools/calibration_survey.py runs the dense-calibrated workload per bench seed and counts its probes."""

import importlib.util
from pathlib import Path

from trochoid.pipeline import calibrate_flip_prob

TOOL = Path(__file__).resolve().parents[1] / "tools" / "calibration_survey.py"


def test_survey_counts_the_probes_of_each_bench_seed():
    spec = importlib.util.spec_from_file_location("calibration_survey", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tally = tool.survey(1)
    assert tally["failed"] == []  # the workload's own check passed
    # bench seed 0 is fig1-left's seeds at n = 500, calibrated on the first three
    probes = calibrate_flip_prob(500, 5, 0.075, [1, 2, 3]).probes
    half = sum(nodes == 250 for *_, nodes in probes)
    assert (tally["half"], tally["full"]) == (half, len(probes) - half)
    assert [bench for _, bench in tally["deviations"]] == [0]
    assert len(tally["digest"]) == 16
