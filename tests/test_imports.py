"""Import hygiene: a package import loads only what it needs.

Every check runs in a fresh interpreter.  The test process has already
imported scipy, networkx and most of ``repro`` during collection, so an
in-process check could not see what an import pulls in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: the four lazy package facades
FACADES = ("repro", "repro.analog", "repro.runtime", "repro.catalog")


def run_fresh(code: str) -> dict:
    """Run *code* in a new interpreter; it prints one JSON value, returned."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def newly_loaded(statement: str) -> list[str]:
    """Modules that executing *statement* adds to ``sys.modules``."""
    return run_fresh(f"""
        import json, sys
        before = set(sys.modules)
        {statement}
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)


def top_levels(modules: list[str]) -> set[str]:
    return {name.split(".")[0] for name in modules}


class TestFacadesImportNothing:
    def test_import_repro_loads_no_submodule(self):
        loaded = newly_loaded("import repro")
        assert [m for m in loaded if m.startswith("repro.")] == []

    @pytest.mark.parametrize("package", FACADES[1:])
    def test_subpackage_facade_loads_no_submodule(self, package):
        loaded = newly_loaded(f"import {package}")
        assert sorted(m for m in loaded if m.startswith("repro.")) == [package]

    def test_catalog_setup_needs_no_heavy_dependency(self):
        loaded = newly_loaded("import repro.catalog.variants, repro.runtime.hashing")
        heavy = top_levels(loaded) & {"scipy", "networkx", "urllib", "http", "ssl"}
        assert heavy == set(), sorted(m for m in loaded if m.split(".")[0] in heavy)

    def test_characterization_spec_needs_no_scipy(self):
        loaded = newly_loaded("import repro.analog.spec")
        assert "scipy" not in top_levels(loaded)


class TestFacadeExports:
    def test_every_export_resolves_to_its_defining_module(self):
        result = run_fresh(f"""
            import importlib, json
            missing = []
            for package in {FACADES!r}:
                module = importlib.import_module(package)
                for name in module.__all__:
                    if not hasattr(module, name):
                        missing.append(package + "." + name)
                    elif name not in dir(module):
                        missing.append("dir:" + package + "." + name)
            print(json.dumps(missing))
        """)
        assert result == []

    def test_star_import(self):
        result = run_fresh("""
            import json
            from repro import *
            print(json.dumps([run_campaign.__module__, FaultPlan.__name__, __version__]))
        """)
        assert result == ["repro.runtime.campaign", "FaultPlan", repro.__version__]

    def test_first_access_caches_the_value(self):
        import repro.runtime

        value = repro.runtime.stable_hash
        assert repro.runtime.__dict__["stable_hash"] is value
        assert repro.runtime.dataplane_available is repro.runtime.dataplane.available

    @pytest.mark.parametrize("package", FACADES)
    def test_unknown_name_raises_attribute_error(self, package):
        import importlib

        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(module, "no_such_export")
        assert not hasattr(module, "no_such_export")


class TestImportOrderIndependence:
    def test_provenance_lists_every_stage_without_the_analog_package(self):
        result = run_fresh("""
            import json, sys
            from repro.runtime import campaign_config_provenance
            versions = campaign_config_provenance()["stage_versions"]
            print(json.dumps([sorted(versions), "repro.analog" in sys.modules]))
        """)
        stages, analog_loaded = result
        assert not analog_loaded
        assert stages == sorted([
            "layout", "voxelize", "roi", "acquire", "denoise", "align",
            "assemble", "reveng", "char_nominal", "char_mc",
        ])

    def test_blur_fault_imports_scipy_on_demand(self):
        result = run_fresh("""
            import json, sys
            import numpy as np
            from repro.faults import FaultInjector, FaultPlan
            scipy_before = "scipy" in sys.modules
            plan = FaultPlan(seed=4, blur_rate=1.0)
            image = np.random.default_rng(0).random((40, 24)).astype(np.float32)
            out = FaultInjector(plan).apply(image.copy(), 0)
            from scipy import ndimage
            expected = ndimage.gaussian_filter(
                image, sigma=plan.blur_sigma_px, mode="nearest"
            ).astype(np.float32)
            print(json.dumps([scipy_before, out.tobytes() == expected.tobytes(),
                              out.tobytes() == image.tobytes()]))
        """)
        assert result == [False, True, False]
