"""Every function the benchmark's tracer wraps still exists.

`perfbench/spans.py` names its targets by module and attribute path; a
refactor that renames or removes one would make `--trace 1` fail.  The
list is read from that file as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for _, modname, path, aliases, _ in _targets():
        module = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            names = (attr, *aliases)
            if owner is None or any(a not in vars(owner) for a in names):
                missing.append(f"{modname}.{path}")
        elif not callable(getattr(module, attr, None)):
            missing.append(f"{modname}.{path}")
    assert missing == []
