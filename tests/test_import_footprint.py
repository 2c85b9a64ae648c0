"""A run pays at import time only for the subsystems it arms.

``import repro`` and an unarmed testbed load the datapath and nothing else:
package ``__init__``s re-export their heavy submodules lazily
(:mod:`repro._lazy`), and the cluster builder imports a hub only when its
config arms it.  Each probe runs in a fresh interpreter, because the test
process has long since imported everything.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro

#: Modules an unarmed ``build_testbed("dRAID")`` must not load.
UNARMED_ABSENT = (
    "repro.ec.lrc",
    "repro.baselines.logstructured",
    "repro.draid.offload",
    "repro.faults.injector",
    "repro.faults.events",
    "repro.faults.plan",
    "repro.faults.domains",
    "repro.faults.detect",
    "repro.obs",
    "repro.obs.trace",
    "repro.obs.sampler",
    "repro.verify",
    "repro.verify.kernel",
    "repro.verify.protocol",
    "repro.qos.control",
    "repro.qos.fair",
    "repro.qos.tokens",
    "repro.raid.recovery",
    "repro.raid.resync",
    "repro.raid.scrubber",
    "repro.rack",
    "repro.apps",
    "repro.workloads",
    "repro.experiments",
)
#: Modules ``import repro`` must load although a plain op never uses them:
#: a measured phase (``bench/``'s ``func_recovery``) reaches them, and a
#: first import there would be charged to the op that made it.
EAGER = ("repro.raid.rebuild", "repro.raid.scrub")


def _probe(source: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, check=True
    ).stdout.strip()


_UNARMED_PROBE = """
import sys
import repro
print(sorted(m for m in {eager!r} if m not in sys.modules))
env, cluster, array = repro.build_testbed("dRAID")
built = set(sys.modules)
env.run(until=array.write(0, 4096))
env.run(until=array.read(0, 4096))
print(sorted(m for m in {absent!r} if m in built))
print(sorted(m for m in set(sys.modules) - built if m.startswith("repro")))
"""


def test_unarmed_testbed_loads_only_the_datapath():
    missing, absent, imported_by_ops = _probe(
        _UNARMED_PROBE.format(eager=EAGER, absent=UNARMED_ABSENT)
    ).splitlines()
    assert missing == "[]", f"not loaded by import repro: {missing}"
    assert absent == "[]", f"loaded by an unarmed build: {absent}"
    assert imported_by_ops == "[]", f"first imported by an op: {imported_by_ops}"


#: config keyword -> (the import its value needs, the value, the module
#: arming it must load)
ARMS = {
    "verify": ("from repro.verify import VerifyConfig", "VerifyConfig()", "repro.verify.kernel"),
    "observability": (
        "from repro.obs import ObservabilityConfig", "ObservabilityConfig()", "repro.obs.trace"
    ),
    "overload": (
        "from repro.qos import OverloadConfig",
        "OverloadConfig(admission_depth=8)",
        "repro.qos.control",
    ),
    "domains": (
        "from repro.faults import default_topology", "default_topology(8)",
        "repro.faults.domains",
    ),
}

_ARMED_PROBE = """
import sys
import repro
{imports}
before = {module!r} in sys.modules
config = repro.ClusterConfig(num_servers=8, {keyword}={value})
env, cluster, array = repro.build_testbed("dRAID", config=config)
env.run(until=array.write(0, 4096))
print(before, {module!r} in sys.modules)
"""


@pytest.mark.parametrize("keyword", sorted(ARMS))
def test_an_armed_config_builds_and_loads_its_package(keyword):
    imports, value, module = ARMS[keyword]
    out = _probe(_ARMED_PROBE.format(
        imports=imports, keyword=keyword, value=value, module=module
    ))
    # a topology and an overload config live in the module they arm; the
    # verify and observability hubs load only when the builder arms them
    before = keyword in ("domains", "overload")
    assert out == f"{before} True", out


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("package", list(_packages()), ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    names = getattr(package, "__all__", ())
    missing = [name for name in names if not hasattr(package, name)]
    assert not missing, f"{package.__name__} exports undefined names: {missing}"
    assert set(names) <= set(dir(package))
