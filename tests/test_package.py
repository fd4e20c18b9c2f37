"""The package's lazy name table: each public name loads its module on first access."""

import os
import subprocess
import sys

import pytest

import pathway_toolkit


def _python(*args) -> str:
    """Standard output of a fresh interpreter that finds the package under test."""
    src = os.path.dirname(os.path.dirname(pathway_toolkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          check=True).stdout


@pytest.mark.parametrize("name", pathway_toolkit.__all__)
def test_every_name_is_what_its_module_defines(name):
    value = getattr(pathway_toolkit, name)
    assert value.__module__.startswith("pathway_toolkit.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_name():
    assert set(pathway_toolkit.__all__) <= set(dir(pathway_toolkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pathway_toolkit.no_such_name
    assert not hasattr(pathway_toolkit, "mellin")


def test_star_import_binds_every_name_without_a_warning():
    code = ("from pathway_toolkit import *\n"
            "import pathway_toolkit\n"
            "print([n for n in pathway_toolkit.__all__ if n not in globals()])")
    assert _python("-W", "error", "-c", code) == "[]\n"


def test_import_loads_no_numerical_module():
    code = ("import sys, pathway_toolkit\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('pathway_toolkit', 'numpy', 'scipy')))\n"
            "print(pathway_toolkit.specfun.pochhammer(2.0, 3))")
    loaded, value = _python("-c", code).splitlines()
    assert loaded == "['pathway_toolkit']"  # none of the five numerical modules, nor numpy
    assert value == "24.0"  # a submodule is an attribute on first access too
