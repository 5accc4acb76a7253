"""The work ledger of `abundancy report --seed 42`: how many times the report
calls each function of a fixed list, counted by a profiler in a fresh
interpreter, against the pinned tests/data/work-seed42.json. In process the
LRU caches would make the counts depend on which tests ran first. Counts,
unlike times, repeat exactly, so a change to the work shows here; a change
that moves them re-pins the file and names the change:

    PYTHONPATH=src python tests/test_work_ledger.py > tests/data/work-seed42.json

A profiler sees Python calls only, not `lru_cache` hits; of the builtins,
`gcd` and `prod` are counted where the Mersenne pre-pass calls them.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

PINNED = Path(__file__).parent / "data" / "work-seed42.json"

# (module, function): keyed by co_name and module file, as Python 3.10 has no co_qualname
COUNTED = [
    ("interval", "_ln_scaled"),
    ("interval", "_atanh_chain"),
    ("interval", "_exp_chain"),
    ("arith", "is_prime"),
    ("arith", "trial_factor"),
    ("arith", "_brent_rho"),
    ("arith", "lucas_lehmer"),
    ("arith", "_small_mersenne_factor"),
    ("interval", "escalate"),
    ("opn", "_certify"),
    ("index", "sandwich_check"),
    ("report", "sample_odd_factorization"),
]
PREPASS_BUILTINS = (math.gcd, math.prod)


def ledger() -> dict[str, int]:
    """The counts for one `report --seed 42`, in the order of COUNTED, then
    the pre-pass's builtins."""
    import abundancy
    from abundancy import arith, cli

    package = Path(abundancy.__file__).parent
    modules = {str(package / f"{module}.py"): module for module, _ in COUNTED}
    counts = {f"{module}.{name}": 0 for module, name in COUNTED}
    counts |= {f"arith._small_mersenne_factor -> {fn.__name__}": 0 for fn in PREPASS_BUILTINS}
    prepass = arith._small_mersenne_factor.__code__

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in modules:
            key = f"{modules[code.co_filename]}.{code.co_name}"
            if key in counts:
                counts[key] += 1
        elif event == "c_call" and code is prepass and arg in PREPASS_BUILTINS:
            counts[f"arith._small_mersenne_factor -> {arg.__name__}"] += 1

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            status = cli.main(["report", "--seed", "42"])
        finally:
            sys.setprofile(None)
    assert status == 0
    return counts


def test_report_work_matches_the_pinned_ledger():
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == json.loads(PINNED.read_text())


if __name__ == "__main__":
    print(json.dumps(ledger(), indent=2))
