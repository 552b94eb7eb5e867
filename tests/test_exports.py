import importlib

import cavityfilter

# the modules whose public names the package re-exports (cli is the
# command-line entry point and stays a module of its own)
REEXPORTED = ("classical", "control", "errors", "fock", "lti", "mc", "qkf",
              "trajectory")


def test_package_exports_are_the_union_of_module_exports():
    union = set()
    for name in REEXPORTED:
        module = importlib.import_module(f"cavityfilter.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"{name}.{attr}"
        union.update(module.__all__)
    assert len(cavityfilter.__all__) == len(set(cavityfilter.__all__))
    assert set(cavityfilter.__all__) == union
    for attr in cavityfilter.__all__:
        assert hasattr(cavityfilter, attr), attr
