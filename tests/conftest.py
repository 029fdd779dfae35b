import json
from importlib.resources import files
from pathlib import Path
from types import SimpleNamespace

import pytest

from gridstep import analyze, build_reduced_model, load_grid

DATA = Path(str(files("gridstep") / "data"))


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


def _model(name):
    return build_reduced_model(load_grid(DATA / name))


@pytest.fixture(scope="session")
def smib_model():
    return _model("smib.json")


@pytest.fixture(scope="session")
def smib_cc_model():
    return _model("smib_cc.json")


@pytest.fixture(scope="session")
def wscc9_model():
    return _model("wscc9.json")


@pytest.fixture(scope="session")
def ieee39_model():
    return _model("ieee39.json")


@pytest.fixture(scope="session")
def smib_basis(smib_model):
    return analyze(smib_model)


@pytest.fixture(scope="session")
def smib_cc_basis(smib_cc_model):
    return analyze(smib_cc_model)


@pytest.fixture(scope="session")
def wscc9_basis(wscc9_model):
    return analyze(wscc9_model)


@pytest.fixture(scope="session")
def ieee39_basis(ieee39_model):
    return analyze(ieee39_model)


@pytest.fixture(scope="session")
def twin_model():
    """Two identical machines (H 3.5 s) on an infinite bus, each through
    0.3 + 0.2 pu with a CC at the middle bus: one modal frequency, twice."""
    from gridstep.network import (Branch, Bus, ControllableComponent, Generator,
                                  GridSystem)

    return build_reduced_model(GridSystem(
        buses=(Bus(1, "generator"), Bus(2, "generator"), Bus(3, "non-generator"),
               Bus(4, "non-generator"), Bus(5, "generator")),
        branches=(Branch(1, 3, 0.3), Branch(3, 5, 0.2), Branch(2, 4, 0.3), Branch(4, 5, 0.2)),
        generators=(Generator(bus=1, inertia=3.5, pm=0.0), Generator(bus=2, inertia=3.5, pm=0.0),
                    Generator(bus=5, inertia=1.0, pm=0.0, infinite=True)),
        loads=(),
        ccs=(ControllableComponent(bus=3, p0=0.0), ControllableComponent(bus=4, p0=0.0)),
        base_mva=100.0,
    ))


@pytest.fixture(scope="session")
def twin_basis(twin_model):
    return analyze(twin_model)


@pytest.fixture(scope="session")
def dfec_scenario():
    from gridstep.scenario import load_scenario

    return load_scenario(DATA / "dfec_twomachine.json")


@pytest.fixture(scope="session", params=["wscc9", "ieee39"])
def bundled_deoc(request):
    """A bundled DEOC study as ``gridstep deoc`` runs it: model, basis,
    scenario, post-disturbance ``(t0, x0)``, targets and schedule."""
    from gridstep.oscillation import build_schedule, default_targets
    from gridstep.scenario import load_scenario
    from gridstep.simulate import apply_disturbance

    name = request.param
    model = request.getfixturevalue(f"{name}_model")
    basis = request.getfixturevalue(f"{name}_basis")
    scn = load_scenario(DATA / f"scenario_{name}.json")
    t0, x0 = apply_disturbance(model, basis, scn.disturbance)
    targets = scn.targets
    if targets is None:
        targets = default_targets(basis, model, x0, scn.n_targets)
    kwargs = dict(dp_overrides=scn.dp_overrides_pu(model.base_mva),
                  stage_window=scn.stage_window)
    schedule = build_schedule(basis, model, x0, t0, targets, **kwargs)
    return SimpleNamespace(name=name, model=model, basis=basis, scn=scn, t0=t0, x0=x0,
                           targets=targets, kwargs=kwargs, schedule=schedule)


def write_json(path, doc):
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1))
    return path
