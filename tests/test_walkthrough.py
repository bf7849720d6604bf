import json
import time

from fisheyestereo.walkthrough import generate_walkthrough


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
