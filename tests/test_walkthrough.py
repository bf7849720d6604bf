import json
import time

from fisheyestereo.evaluate import correspondence_error
from fisheyestereo.fields import compose_with_calibration
from fisheyestereo.solver import SolverParams, solve_pyramid
from fisheyestereo.synth import make_ground_truth, render
from fisheyestereo.walkthrough import _toy_rig, _toy_scene, generate_walkthrough


def test_walkthrough_runs_fast_and_is_stable(tmp_path):
    t0 = time.perf_counter()
    doc = generate_walkthrough(tmp_path / "a")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert doc.exists()

    generate_walkthrough(tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        twin = tmp_path / "b" / path.name
        assert twin.exists()
        assert path.read_bytes() == twin.read_bytes()


def test_walkthrough_artifact_set(tmp_path):
    out = tmp_path / "w"
    generate_walkthrough(out)
    names = {p.name for p in out.iterdir()}
    assert "walkthrough.md" in names
    assert "epipolar_trace_overlay.png" in names
    for stem in ("calibration_field", "trajectory_field", "disparity",
                 "image_derivative", "residual_initial"):
        assert f"{stem}.pfm" in names
    text = (out / "walkthrough.md").read_text()
    summary = json.loads((out / "walkthrough_summary.json").read_text())
    dropped = summary["energy_final"] < summary["energy_zero_init"]
    assert ("Energy dropped" if dropped else "Energy rose") in text


def test_walkthrough_scores_the_composed_correspondence(tmp_path):
    # The solver's warp points into the calibration-warped image 1 and the
    # ground truth into camera 1, so the score composes the two first.
    out = tmp_path / "w"
    generate_walkthrough(out)
    summary = json.loads((out / "walkthrough_summary.json").read_text())
    rig, scene = _toy_rig(), _toy_scene()
    i0, _, _ = render(scene, rig.cam0)
    i1, _, _ = render(scene, rig.cam1, pose=rig.pose)
    gt = make_ground_truth(scene, rig)
    res = solve_pyramid(i0, i1, rig, SolverParams(warp_iters=4, pd_iters=10,
                                                  pyramid_levels=1, min_width=8))
    corr, corr_ok = compose_with_calibration(res.w, res.cal, res.cal_ok)
    scored = gt.covisibility & res.mask & corr_ok
    composed = correspondence_error(corr, gt.correspondence, scored)[scored].mean()
    assert summary["mean_error_px"] == float(composed)
    uncomposed = gt.covisibility & res.mask
    assert composed < correspondence_error(res.w, gt.correspondence,
                                           uncomposed)[uncomposed].mean()
