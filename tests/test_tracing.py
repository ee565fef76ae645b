"""The benchmark's tracer patches names inside cvrate from outside; these
tests fail when a refactor removes or renames a name it binds."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from cvrate import cli

ROOT = Path(__file__).resolve().parents[1]

CLI_NAMES = (
    "main",
    "load_config",
    "link_from_config",
    "protocol_from_config",
    "sweep_from_config",
    "optimize_from_config",
    "fiber_from_config",
    "parse_trust",
    "optimize_vmod",
    "optimize_vmod_trec_snr_locked",
    "evaluate",
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_cli_names_are_traced(tracing):
    bound = {attr for module, attr, _ in tracing.SPANS if module == "cvrate.cli"}
    assert set(CLI_NAMES) <= bound


def test_every_binding_resolves_and_is_restored(tracing):
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr) for module, attr, _ in tracing.SPANS
    }
    hooks = {}
    for module, cls_name, method, _ in tracing.COUNTERS:
        cls = getattr(importlib.import_module(module), cls_name)
        hooks[(cls, method)] = cls.__dict__[method]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), fn in originals.items():
            assert getattr(importlib.import_module(module), attr).__wrapped__ is fn
        for (cls, method), fn in hooks.items():
            assert cls.__dict__[method].__wrapped__ is fn
    finally:
        tracer.uninstall()

    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn
    for (cls, method), fn in hooks.items():
        assert cls.__dict__[method] is fn


def test_traced_cli_call_is_counted(tracer, capsys):
    tracer.active = True
    assert cli.main(["rate", "--config", str(ROOT / "configs" / "point.ini")]) == 0
    tracer.active = False
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    assert metrics["cli.calls"] == 1
    assert metrics["config.calls"] >= 3
    assert metrics["keyrate.evaluate_calls"] == 1
    assert metrics["cloner.holevo_calls"] >= 1
    assert metrics["cloner.linkparams_built"] >= 1


def test_traced_sweep_builds_one_link_plus_the_redone_rows(tracer, tmp_path, monkeypatch):
    # a non-optimized sweep runs each trust case's grid as arrays: only the
    # config's link and the rows left to the float path build a LinkParams
    redone = []
    swept_rates = cli._swept_rates

    def spy(*args):
        rows = swept_rates(*args)
        redone.extend(row for row in rows if row is None)
        return rows

    monkeypatch.setattr(cli, "_swept_rates", spy)
    # starts at xi_ch = 0: with trusted preparation noise that row is a pure-loss
    # channel, whose smaller eigenvalue is 1 and rounds to either side of the
    # entropy's branch
    config = ROOT / "tests" / "data" / "sweep_xi_ch.ini"
    tracer.active = True
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 0
    tracer.active = False
    assert len(redone) == 1
    assert tracer.layer_metrics()["cloner.linkparams_built"] == 1 + len(redone)
