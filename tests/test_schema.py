"""Field rules hold for a dataclass built in Python as for one read from JSON."""

from dataclasses import fields, replace

import numpy as np
import pytest

from fisheyestereo.camera import CAMERAS, PinholeCamera, UnifiedCamera
from fisheyestereo.schema import COUNT, POSITIVE, Ruled
from fisheyestereo.solver import SolverParams
from fisheyestereo.synth import (PRIMITIVES, TEXTURES, Checkerboard, SineGrating, Sphere,
                                 ValueNoise)
from test_camera import BAD_RIG_IDS, BAD_RIG_VALUES, POLY_FULL, UNIFIED
from test_solver import PARAMS_WRONG_TYPES
from test_synth import BAD_SCENE_VALUES, _SCENE_SPEC


def _rig_cases():
    """Each bad camera value of the rig table, on the camera it was set on."""
    for (part, key, value, message), name in zip(BAD_RIG_VALUES, BAD_RIG_IDS):
        if part in ("cam0", "cam1") and key != "type" and "is not a key" not in message:
            cam = UNIFIED if part == "cam0" else POLY_FULL
            yield pytest.param(cam, "fov" if key == "fov_deg" else key, value,
                               id=f"rig-{name}")


def _scene_cases():
    """Each bad primitive or texture value of the scene table, on its object."""
    for n, row in enumerate(BAD_SCENE_VALUES):
        index, key, value, message = getattr(row, "values", row)
        if "is not a key" not in message:
            prim = _SCENE_SPEC.primitives[index]
            obj = prim if key in {f.name for f in fields(prim)} else prim.texture
            yield pytest.param(obj, key, value, id=f"scene-{n}-{type(obj).__name__}-{key}")


_CAM = dict(width=40, height=40, fx=20.0, fy=20.0, cx=19.5, cy=19.5, fov=np.pi)
_OTHER_CASES = [
    pytest.param(SolverParams(), "min_width", 0, id="params-min_width-0"),
    pytest.param(SolverParams(), "min_width", -5, id="params-min_width-negative"),
    pytest.param(Sphere(center=(0, 0, 1), radius=1, texture=Checkerboard()), "radius", -1,
                 id="sphere-negative-radius"),
    pytest.param(UnifiedCamera(**_CAM, xi=0.9), "fx", 0, id="unified-zero-fx"),
    pytest.param(PinholeCamera(**_CAM), "fov", -1, id="pinhole-negative-fov"),
    pytest.param(ValueNoise(), "octaves", 2.5, id="noise-fractional-octaves"),
    pytest.param(SineGrating(), "direction", (0, 0, 0), id="sine-zero-direction"),
    pytest.param(Checkerboard(), "period", 0, id="checker-zero-period"),
]


@pytest.mark.parametrize("obj, name, value",
                         [*_rig_cases(), *_scene_cases(), *_OTHER_CASES])
def test_constructor_rejects_what_json_rejects(obj, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        replace(obj, **{name: value})


# Of 0, -1 and NaN, the values that each rule of a SolverParams field rejects.
_REJECTED = {COUNT: (0, -1, float("nan")), POSITIVE: (0, -1, float("nan"))}


def _params_cases():
    """Each wrong-type value of the solver table, then each field's rejected
    values among 0, -1 and NaN."""
    for name, value in PARAMS_WRONG_TYPES:
        yield pytest.param(name, value, id=f"{name}-{value!r}")
    for f in fields(SolverParams):
        for value in _REJECTED[f.metadata["rule"]]:
            yield pytest.param(f.name, value, id=f"{f.name}-{value!r}")


@pytest.mark.parametrize("build", [lambda d: SolverParams(**d), SolverParams.from_dict],
                         ids=["constructor", "from_dict"])
@pytest.mark.parametrize("name, value", _params_cases())
def test_solver_params_reject_what_their_rules_reject(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build({name: value})


@pytest.mark.parametrize("cls", [SolverParams, *CAMERAS.classes, *PRIMITIVES.classes,
                                 *TEXTURES.classes], ids=lambda cls: cls.__name__)
def test_every_config_field_carries_a_rule(cls):
    # Construction checks only the fields that name a rule (or nest a family).
    assert issubclass(cls, Ruled)
    assert [f.name for f in fields(cls)
            if "rule" not in f.metadata and "family" not in f.metadata] == []


def test_constructor_keeps_values_in_the_field_types():
    cam = UnifiedCamera(width=np.int64(40), height=40, fx=20, fy=np.float32(20.0), cx=19.5,
                        cy=19.5, fov=np.float64(np.pi), xi=1)
    assert [type(getattr(cam, f.name)) for f in fields(cam)] == [int, int] + [float] * 6
    box = replace(_SCENE_SPEC.primitives[2], lo=np.array([-1, -1, -1]))
    assert box.lo == (-1.0, -1.0, -1.0) and all(type(v) is float for v in box.lo)
    assert SolverParams(lam=4, warp_iters=np.int64(3)).to_dict()["lam"] == 4.0
