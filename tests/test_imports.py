"""The package's import contract: ``import hopbound`` loads none of its modules,
a public name loads its own module on first access, and ``hopbound.cli`` loads
every module a command may need."""

import importlib
import os
import subprocess
import sys

import pytest

import hopbound

# what `from hopbound import cli` loads: every module, as when the package imported
# them all; the benchmark's in-process runs import hopbound.cli before timing
CLI_MODULES = ["hopbound", *(f"hopbound.{name}" for name in (
    "allocation", "arq", "channel", "cli", "distproto", "exponents", "oracle", "scenario",
    "system"))]


def _loaded(source: str) -> list[str]:
    """The hopbound modules a fresh interpreter holds after running `source`."""
    code = (source + "\nimport sys\nprint(*sorted(m for m in sys.modules"
            " if m.partition('.')[0] == 'hopbound'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopbound.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("source, modules", [
    ("import hopbound", ["hopbound"]),
    ("import hopbound\nhopbound.simulate_latency", ["hopbound", "hopbound.arq"]),
    ("from hopbound import cli", CLI_MODULES),
], ids=["import", "simulate_latency", "cli"])
def test_a_fresh_process_loads_only_the_modules_it_uses(source, modules):
    assert _loaded(source) == modules


def test_every_public_name_is_its_modules_own_object():
    assert len(hopbound.__all__) == len(set(hopbound.__all__)) == 38
    for name in hopbound.__all__:
        module = importlib.import_module(f"hopbound.{hopbound._MODULE_OF[name]}")
        assert name in module.__all__
        assert getattr(hopbound, name) is getattr(module, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from hopbound import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(hopbound.__all__)
    assert set(hopbound.__all__) <= set(dir(hopbound))


def test_a_submodule_resolves_and_an_unknown_name_raises():
    assert hopbound.channel is importlib.import_module("hopbound.channel")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hopbound.no_such_name
    with pytest.raises(ImportError):
        from hopbound import no_such_name  # noqa: F401
